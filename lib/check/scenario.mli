(** Checker workloads: small, deterministic, conflict-heavy scenarios
    with post-run invariant checks. A scenario builds a fresh system per
    schedule so replays are exact. *)

open Partstm_stm

type instance = {
  bodies : (int -> unit) list;  (** fiber bodies for {!Partstm_simcore.Sim.run} *)
  engine : Engine.t;
      (** the instance's engine, for attaching extra observer taps (e.g. a
          tracer) alongside the history recorder *)
  history : History.t;  (** recorder already attached to the instance's engine *)
  check : unit -> string list;  (** post-run invariant violations *)
}

type t = { name : string; fibers : int; make : unit -> instance }

val bank :
  ?mode:Mode.t ->
  ?accounts:int ->
  ?workers:int ->
  ?transfers:int ->
  ?observer:bool ->
  name:string ->
  unit ->
  t
(** Overlapping transfers plus a read-only summing observer; invariants:
    conservation and consistent observed sums. *)

val queue : name:string -> unit -> t
(** Two producers of four items each and two consumers over
    {!Partstm_structures.Tqueue}; invariant: no item lost or duplicated. *)

val reconfigure :
  ?modes:Mode.t list -> ?workers:int -> ?transfers:int -> name:string -> unit -> t
(** Bank plus a tuner fiber swapping the partition's mode mid-run, walking
    the given mode sequence (default: granularity/visibility/update flips). *)

val mixed_modes : ?workers:int -> ?transfers:int -> name:string -> unit -> t
(** Transfers spanning an invisible/write-back and a visible/write-through
    partition in one transaction. *)

val mixed_protocols : ?workers:int -> ?transfers:int -> name:string -> unit -> t
(** Transfers spanning multi-version, commit-time-lock and single-version
    partitions in one transaction, plus an observer reading all three. *)

val ctl_mirror : name:string -> unit -> t
(** Two incrementers and one mirrorer, two transactions each:
    read-one-write-another transactions over a commit-time-lock partition:
    the shape whose only defence is commit-time value revalidation.
    Invariants: the mirrored pair stays equal and no increment is lost. *)

val bank_invisible : t
val bank_visible : t
val bank_write_through : t
val bank_multi_version : t
val bank_commit_lock : t
val ctl_mirror_default : t
val queue_default : t
val reconfigure_default : t
val protocol_reconfigure_default : t
val mixed_modes_default : t
val mixed_protocols_default : t

val all : t list
val find : string -> t option

val for_bug : Bug.t -> t
(** The workload on which a given seeded bug is observable. *)
