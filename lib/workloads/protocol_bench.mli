(** Protocol comparison on the deterministic simulator (experiment M1,
    EXPERIMENTS.md §R-M1): the same read-dominated ledger run under each
    concurrency-control protocol with the same seed, plus a tuner-autonomy
    phase where two default-mode partitions must be moved to the protocol
    that fits them. Driven by [bench/exp_m1.ml], which writes
    BENCH_M1.json. *)

open Partstm_stm

type config = {
  auditors : int;  (** read-only full-book summing fibers *)
  updaters : int;  (** transfer fibers *)
  accounts : int;
  initial_balance : int;
  cycles : int;  (** virtual duration of each matrix arm *)
  mv_depth : int;  (** history depth of the multi-version arm *)
  seed : int;
  (* tuner-autonomy phase *)
  scan_workers : int;  (** fibers on the read-mostly partition *)
  hot_workers : int;  (** fibers on the small contended partition *)
  scan_cells : int;
  hot_cells : int;
  tuner_cycles : int;
  tuner_steps : int;
}

val default_config : config
val quick_config : config

type arm = {
  a_protocol : Protocol.t;
  a_commits : int;
  a_ro_commits : int;
  a_aborts : int;
  a_ro_aborts : int;
  a_auditor_aborts : int;
      (** aborts summed over the auditor fibers' stripes only — every
          auditor transaction is read-only, so this is the exact
          read-only-transaction abort count *)
  a_validation_fails : int;
  a_lock_conflicts : int;
  a_mv_hist_reads : int;
  a_ctl_commits : int;
  a_bad_sums : int;  (** audits that observed an inconsistent total *)
  a_throughput : float;  (** operations per million virtual cycles *)
}

type switch = { sw_tick : int; sw_partition : string; sw_to : Mode.t }

type report = {
  r_config : config;
  r_arms : arm list;  (** single-version, multi-version, commit-time-lock *)
  r_scan_final : Mode.t;  (** read-mostly partition's mode after the run *)
  r_hot_final : Mode.t;  (** contended partition's mode after the run *)
  r_switches : switch list;  (** tuner decisions, chronological *)
}

val run : ?progress:(string -> unit) -> config -> report
val find_arm : report -> Protocol.t -> arm option

val check_mv_read_path : report -> Workload.verdict
(** The multi-version arm commits every auditor transaction (zero read-only
    aborts) while actually serving history reads; the single-version arm
    aborts read-only work under the same seed. *)

val check_ctl_commits : report -> Workload.verdict
(** The commit-time-lock arm publishes through the sequence lock and no
    arm's auditor ever observes an inconsistent total. *)

val check_tuner_protocols : report -> Workload.verdict
(** From [Mode.default] on both partitions, the tuner's decision trace
    moves the read-mostly partition to multi-version and the small
    contended partition to commit-time locking. *)

val checks : report -> (string * Workload.verdict) list

val to_json : report -> Partstm_util.Json.t
(** The BENCH_M1.json document: config, per-protocol points and all three
    check verdicts. *)

val to_table : report -> Partstm_util.Table.t
