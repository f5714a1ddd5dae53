(** Contention managers (abort-self policies, TinySTM family).

    Delays count {!Partstm_util.Runtime_hook.Backoff} units: virtual cycles
    on the simulator, [Domain.cpu_relax] calls on domains (~27 ns each on
    an x86 Xeon, so the default 32..32768 spans ~1 µs to ~1 ms there). *)

open Partstm_util

type t =
  | Suicide
  | Backoff of { min_delay : int; max_delay : int }
  | Constant of int

val backoff : min_delay:int -> max_delay:int -> t
(** Validating constructor: raises [Invalid_argument] unless
    [0 < min_delay <= max_delay] (out-of-order bounds would silently clamp
    every attempt to [max_delay], and a non-positive [min_delay] collapses
    the schedule to a constant 1). *)

val constant : int -> t
(** Validating constructor: raises [Invalid_argument] on negative delays. *)

val default : t
(** Randomised exponential backoff. *)

val to_string : t -> string

val of_string : string -> (t, string) result
(** Inverse of {!to_string}: accepts [suicide], [backoff(MIN..MAX)] and
    [constant(N)], validated through the smart constructors. *)

val delay : t -> Rng.t -> attempt:int -> unit
(** Perform the post-abort delay for the [attempt]-th consecutive abort
    (first abort = 1). *)
