(** Experiment configurations: global mode vs. per-partition static vs.
    dynamically tuned. *)

open Partstm_stm

type t =
  | Shared of Mode.t
      (** unpartitioned baseline: the whole heap in one region/lock table *)
  | Fixed of Mode.t
  | Per_partition of { assignments : (string * Mode.t) list; fallback : Mode.t }
  | Tuned of Mode.t

val invisible : Mode.t
(** Invisible reads, default granularity. *)

val visible : Mode.t
(** Visible reads, default granularity. *)

val write_through : Mode.t
(** Invisible reads, default granularity, write-through updates. *)

val shared_invisible : t
val shared_visible : t
val global_invisible : t
val global_visible : t
val tuned : t

val mode_for : t -> string -> Mode.t
val is_shared : t -> bool
val tunable : t -> bool
val label : t -> string
