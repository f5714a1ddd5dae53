(** Structured per-attempt transaction tracing (DESIGN.md §8.2).

    An {!Partstm_stm.Engine} tap that records one span per transaction
    attempt — begin, read/write totals, validation outcome, commit/abort
    with cause — into per-shard ring buffers (1024 shards keyed by
    descriptor id, one writer per shard), with optional deterministic
    1-in-N sampling and
    retry-chain linkage — plus exact per-region aggregates: a hot-orec
    heatmap keyed by [Lock_table] slot and commit-phase, abort and
    lock-wait-spin histograms ({!summary}).  Counting is never sampled: on
    a deterministic run the heatmap totals equal the engine's
    {!Partstm_stm.Region_stats} conflict counters (globally; per-region
    splits can differ for multi-partition transactions), and the abort
    histograms together count every aborted attempt that touched a region.
    The tap watches attempts only: the read/write totals and the region
    arrive with the commit or abort, so the engine calls it on no read or
    write, and an unsampled attempt allocates nothing. Attach alongside
    other taps (e.g. the checker's history recorder) via the engine
    fan-out. *)

open Partstm_util
open Partstm_stm

type outcome = Committed | Aborted of Engine.abort_cause

type span = {
  sp_txn : int;  (** descriptor id *)
  sp_worker : int;  (** worker id of the owning descriptor *)
  sp_shard : int;
  sp_chain : int;  (** retry-chain number, unique within the shard *)
  sp_attempt : int;  (** 1-based attempt position within the chain *)
  sp_begin : int;  (** clock at begin *)
  sp_commit_begin : int;  (** clock at commit entry, -1 if never reached *)
  sp_end : int;  (** clock at commit/abort *)
  sp_outcome : outcome;
  sp_rv : int;  (** read version (snapshot) of the attempt *)
  sp_stamp : int;  (** commit stamp, -1 otherwise *)
  sp_reads : int;
  sp_writes : int;
  sp_region : int;  (** first region the attempt touched, -1 when none *)
}

type decision = {
  d_time : int;
  d_partition : string;
  d_from : string;
  d_to : string;
}
(** A tuner reconfiguration decision, bridged in by the driver. *)

type t

val create : ?ring_capacity:int -> ?sample_every:int -> ?seed:int -> unit -> t
(** Shards are keyed by descriptor id modulo 1024: a collision between
    two concurrently live descriptors can mis-count (never corrupt
    memory). [ring_capacity] (default 4096) bounds stored spans
    per shard; the oldest are evicted and counted in {!dropped_spans}.
    [sample_every] = n keeps each attempt with probability 1/n, decided
    from a per-shard deterministic stream seeded by [seed] (counters,
    heatmap and histograms stay exact). Shards allocate lazily. *)

val attach : t -> Engine.t -> unit
(** Install as an engine tap (fan-out: other taps keep observing). At most
    one engine per tracer; only while no transaction is in flight. *)

val detach : t -> unit
(** Remove the tap from the engine it was attached to (no-op if detached). *)

val recorder : t -> Engine.recorder
(** The raw tap, for callers managing {!Partstm_stm.Engine.add_tap}
    themselves. *)

val set_clock : t -> (unit -> int) -> unit
(** Timestamp source: virtual cycles (Simulated) or nanoseconds since run
    start (Domains); installed by [Driver.run]. Default: constant 0. *)

val clear_clock : t -> unit
val sample_every : t -> int

val record_decision : t -> partition:string -> from_mode:string -> to_mode:string -> unit
(** Log a tuner decision at the current clock (thread-safe). *)

val decisions : t -> decision list
(** Chronological. *)

val spans : t -> span list
(** All stored spans, chronological by begin timestamp (deterministically
    tie-broken). *)

val attempts : t -> int
(** Total attempts observed — exact, independent of sampling/eviction. *)

val committed : t -> int
val aborted : t -> int

val kept_spans : t -> int
(** Spans currently stored across all rings. *)

val dropped_spans : t -> int
(** Spans evicted by ring overflow (sampling skips are not drops). *)

val outcome_label : outcome -> string
(** ["committed"] or ["aborted-<cause>"]. *)

val pp_span : Format.formatter -> span -> unit

(** {2 Per-region aggregates}

    Conflict counts are charged to the region the conflict event names.
    Latencies are charged to the attempt's region: the first region it
    touched (the span's [sp_region]). *)

type slot_total = {
  st_region : int;
  st_slot : int;
  st_lock : int;  (** encounter-time lock acquisition failures *)
  st_reader : int;  (** visible-reader drain timeouts *)
  st_validation : int;  (** read-set validation failures traced to this slot *)
}

val slot_weight : slot_total -> int
(** [st_lock + st_reader + st_validation]. *)

type region_summary = {
  rs_region : int;
  rs_slots : slot_total list;  (** descending by {!slot_weight} *)
  rs_lock_fails : int;
  rs_reader_fails : int;
  rs_validation_fails : int;  (** includes slot-unattributed failures *)
  rs_unattributed_validation : int;
  rs_commit : Histogram.t;
      (** commit entry -> locks released; update transactions only
          (read-only commits have no commit phase) *)
  rs_abort : Histogram.t;  (** begin -> rollback *)
  rs_lock_wait : Histogram.t;  (** spins per successful acquisition *)
}

val summary : t -> region_summary list
(** Merged across shards, ascending by region id. *)

val hot_slots : ?top_k:int -> t -> slot_total list
(** The [top_k] (default 10) hottest slots across all regions, descending
    by {!slot_weight} with a deterministic tie-break. *)

val to_json : ?name_of_region:(int -> string) -> t -> Json.t
(** {!summary} as one object per region (the [-contention.json]
    artifact of [partstm profile]). *)
