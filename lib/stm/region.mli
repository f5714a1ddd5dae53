(** Engine-level data partition: own lock table, own read-visibility policy,
    own concurrency-control protocol, own statistics, and the freeze/quiesce
    protocol for safe online reconfiguration (DESIGN.md §4, §10). *)

(** The region's configuration, replaced whole (never mutated) by
    {!reconfigure} under engine quiesce. *)
type config = {
  table : Lock_table.t;
  mode : Mode.t;  (** [mode.granularity_log2] is [table]'s *)
  mv_depth : int;  (** cached multi-version depth, 0 otherwise *)
  mv_epoch : int;
      (** multi-version configuration period; bumped on every protocol
          change *)
}

type t = {
  id : int;
  name : string;
  engine : Engine.t;
  mutable config : config;  (** swapped only under engine quiesce *)
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
(** Replace the configuration under the engine-wide quiesce
    ({!Engine.quiesce}): a new lock table only if the granularity changed
    (built before the freeze), and a bumped [mv_epoch] only if the
    protocol changed, so stale multi-version histories are rebuilt lazily.
    At most one reconfiguration at a time per engine; the caller must not
    be inside a transaction. *)

val pp : Format.formatter -> t -> unit
