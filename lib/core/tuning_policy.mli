(** Pure per-partition tuning heuristic (read visibility, conflict
    granularity, update strategy and concurrency-control protocol, with
    hysteresis). See the implementation header for the rationale, which
    follows the paper's Section 1 examples. *)

open Partstm_stm

type config = {
  min_attempts : int;
  update_ratio_hi : float;
  update_ratio_lo : float;
  wasted_validation_hi : float;
  abort_rate_hi : float;
  writes_per_update_txn_hi : float;
  small_region_tvars : int;
  abort_rate_lo : float;
  write_through_abort_lo : float;
  write_through_abort_hi : float;
  granularity_step : int;
  granularity_lo : int;
  granularity_hi : int;
  mv_ro_ratio_hi : float;
  mv_ro_ratio_lo : float;
  mv_wasted_hi : float;
  mv_depth : int;
  ctl_tvars_max : int;
  ctl_abort_hi : float;
  ctl_abort_lo : float;
}

val default_config : config

type observation = {
  delta : Region_stats.snapshot;  (** stats accumulated over one period *)
  current : Mode.t;
  tvars : int;  (** region size, gates object-level coarsening *)
  mv_blocked : bool;
      (** multi-version entry is held off: the partition left it after a
          failed trial (its read-only waste persisted), and no period
          since has shown that waste at or below [mv_wasted_hi] *)
}

type decision = Keep | Switch of Mode.t

(** Structured explanation of one decision: every input the policy looked
    at, the rules that fired and the alternatives it rejected (with the
    threshold comparison that rejected them). *)
type why = {
  w_attempts : int;
  w_abort_rate : float;
  w_update_ratio : float;
  w_wasted_validation : float;
  w_writes_per_update_txn : float;
  w_ro_commit_ratio : float;
  w_ro_wasted : float;
  w_tvars : int;
  w_triggered : string list;  (** rules that fired, in evaluation order *)
  w_rejected : string list;  (** alternatives considered and declined *)
}

val explain : config -> observation -> decision * why
(** The policy itself. [decide] is [fst (explain config obs)]; the [why]
    carries no decision authority, only the audit trail. *)

val decide : config -> observation -> decision

val why_to_json : why -> Partstm_util.Json.t
val pp_why : Format.formatter -> why -> unit
