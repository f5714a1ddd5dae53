(** A region's lock table: orec words plus visible-reader counters.
    Immutable once published; granularity changes swap in a new table under
    the region quiesce protocol. *)

type t = {
  words : int Atomic.t array;
  readers : int Atomic.t array;
  granularity_log2 : int;
  padded : bool;  (** orecs/counters are cache-line-padded blocks *)
}

val create : padded:bool -> clock_now:int -> granularity_log2:int -> t
(** Fresh orecs start at version [clock_now] (conservative, safe across
    table swaps). [padded] allocates each orec word and reader counter on
    its own cache line ({!Partstm_util.Padding}) so concurrent CASes on
    adjacent slots do not false-share; it is capped internally for very
    large tables and can be disabled for A/B comparison (bench/exp_d1). *)

val restamp : t -> clock_now:int -> unit
(** Set every orec to version [clock_now]. Only for a table no transaction
    can reach yet: {!Region.reconfigure} builds the replacement table before
    the quiesce and restamps it inside if the clock moved meanwhile. *)

val is_padded : t -> bool

val slots : t -> int
val slot_of_id : t -> int -> int
val word : t -> int -> int Atomic.t

val reader_counter : t -> int -> int Atomic.t

val locked_slots : t -> int
(** Diagnostic: number of currently write-locked slots. *)

val readers_total : t -> int
(** Diagnostic: sum of visible-reader counters. *)
