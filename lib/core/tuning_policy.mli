(** Pure per-partition tuning heuristic (read visibility, conflict
    granularity, update strategy and concurrency-control protocol, with
    hysteresis). See the implementation header for the rationale, which
    follows the paper's Section 1 examples. *)

open Partstm_stm

val min_attempts : int
(** Attempts a period needs before the policy decides anything (200). *)

val granularity_hi : int
(** The finest granularity the policy refines to (14); it never coarsens
    below {!Partstm_stm.Mode.granularity_min}. *)

type observation = {
  delta : Region_stats.snapshot;  (** stats accumulated over one period *)
  current : Mode.t;
  tvars : int;  (** region size, gates object-level coarsening *)
  mv_blocked : bool;
      (** multi-version entry is held off: the [mv_blocked] of the
          partition's previous {!verdict} *)
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

type verdict = {
  decision : decision;
  mv_blocked : bool;
      (** the block for the partition's next period. A partition that
          leaves multi-version with its read-only waste still above the
          threshold (a failed trial) is blocked from re-entering it; the
          first period of at least {!min_attempts} attempts that shows the
          waste at or below the threshold lifts the block. Smaller
          periods leave it as it was. *)
  why : why;  (** the audit trail; it carries no decision authority *)
}

val explain : observation -> verdict
(** The policy itself: a pure function of the observation, with its
    thresholds fixed in the implementation. *)

val why_to_json : why -> Partstm_util.Json.t
