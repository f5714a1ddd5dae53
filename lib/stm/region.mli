(** Engine-level data partition: own lock table, own read-visibility policy,
    own concurrency-control protocol, own statistics, and the freeze/quiesce
    protocol for safe online reconfiguration (DESIGN.md §4, §10). *)

type t = {
  id : int;
  name : string;
  engine : Engine.t;
  mutable table : Lock_table.t;  (** swapped only under engine quiesce *)
  mutable visibility : Mode.read_visibility;
  mutable update : Mode.update_strategy;
  mutable protocol : Protocol.t;
  mutable mv_depth : int;  (** cached multi-version depth, 0 otherwise *)
  mutable mv_epoch : int;
      (** multi-version configuration period; bumped on every reconfigure *)
  ctl_seq : Seqlock.t;  (** commit-time-lock sequence word *)
  stats : Region_stats.t;
  tvars : int Atomic.t;
}

val create : Engine.t -> name:string -> ?mode:Mode.t -> unit -> t

val mode : t -> Mode.t
(** Current (visibility, granularity, update, protocol) configuration. *)

val tvar_count : t -> int
(** Number of tvars allocated in this region. *)

val reconfigure : t -> Mode.t -> unit
(** Swap the lock table (only if the granularity changed; the new table is
    built before the freeze), visibility, update strategy and protocol
    under the engine-wide quiesce ({!Engine.quiesce}); a protocol change
    bumps [mv_epoch] so stale
    multi-version histories are rebuilt lazily. At most one reconfiguration
    at a time per engine; the caller must not be inside a transaction. *)

val pp : Format.formatter -> t -> unit
