(** YCSB-style keyed workload driver over the partitioned store
    (experiment R-Y1, DESIGN.md §11).

    A keyspace of [keys] integer cells is split into [partitions]
    contiguous key ranges, one STM partition each; workers draw keys from
    a seeded Zipf(θ) generator ({!Partstm_util.Zipf}, rank 0 hottest) and
    execute the standard YCSB operation mixes (A–F) plus explicit
    read-modify-write and scan operations.  The run is phased: each phase
    can override the skew, the operation mix and rotate the hot key range
    ("hot-key shift"), reproducing production traffic ramps.  Every
    operation's latency lands in per-worker histograms (virtual cycles on
    the simulator, nanoseconds on domains), which the report folds into
    per-phase p50/p95/p99 and SLO-compliance columns. *)

open Partstm_util
open Partstm_core
open Partstm_harness

(** {1 Operations and mixes} *)

type op_class = Read | Update | Insert | Scan | Rmw

val op_classes : op_class list
val op_class_name : op_class -> string

type mix = {
  mx_name : string;
  mx_read : int;  (** percent *)
  mx_update : int;
  mx_insert : int;
  mx_scan : int;
  mx_rmw : int;
}

val mix_a : mix
(** 50% read / 50% update — update heavy. *)

val mix_b : mix
(** 95% read / 5% update — read mostly. *)

val mix_c : mix
(** 100% read. *)

val mix_d : mix
(** 95% read-latest / 5% insert. *)

val mix_e : mix
(** 95% scan / 5% insert — short ranges. *)

val mix_f : mix
(** 50% read / 50% read-modify-write. *)

val mix_to_string : mix -> string
(** A standard mix's letter, otherwise its nonzero classes as percents,
    e.g. ["r80,u10,m10"] (r=read, u=update, i=insert, s=scan, m=rmw). *)

(** {1 Phases} *)

type phase = {
  ph_name : string;
  ph_weight : float;  (** share of the run, > 0; normalised over the list *)
  ph_theta : float option;  (** Zipf skew override for this phase *)
  ph_mix : mix option;  (** operation-mix override *)
  ph_shift : float;  (** hot-set rotation, as a fraction of the keyspace *)
}

val default_phases : phase list
(** warm (25%, θ=0.5, mix B) → peak (50%, configured θ and mix) →
    hot-shift (25%, configured θ and mix, hot set rotated by 0.37·keys). *)

val phases_to_string : phase list -> string
(** Comma-separated [NAME:WEIGHT[:theta=T][:mix=M][:shift=F]] clauses,
    e.g. ["warm:0.25:theta=0.5:mix=b,peak:0.5,hot-shift:0.25:shift=0.37"]. *)

(** {1 Configuration} *)

type config = {
  keys : int;
  partitions : int;  (** contiguous key ranges, one STM partition each *)
  theta : float;  (** Zipf skew for phases without an override *)
  mix : mix;  (** mix for phases without an override *)
  scan_len : int;
  phases : phase list;
  slo_quantile : float;  (** e.g. 95.0 *)
  slo_threshold_sim : int;  (** per-op latency budget, virtual cycles *)
  slo_threshold_wall : int;  (** per-op latency budget, nanoseconds *)
}

val default_config : config
val quick_config : config

val bench_sim_cycles : quick:bool -> int
(** Virtual-time budget of the R-Y1 sim arm ([bench/exp_y1.ml] and the
    tests that pin its checks). *)

val bench_workers : quick:bool -> int

(** {1 Store and worker} (what {!run} drives; usable under any [Driver.run]) *)

type t

val setup : System.t -> strategy:Strategy.t -> config -> t
val worker : t -> Driver.ctx -> int

val check : t -> bool
(** Store invariant: every cell's value is at least its key (updates and
    inserts write the key, read-modify-writes increment), and no scan or
    read ever observed a value below that floor. *)

(** {1 Orchestrated runs} ([bench/exp_y1.ml]) *)

type phase_summary = {
  ps_name : string;
  ps_theta : float;
  ps_mix : string;
  ps_shift : float;
  ps_ops : int;
  ps_lat : Histogram.summary;  (** all operations in the phase *)
  ps_per_op : (op_class * Histogram.summary) list;  (** classes with traffic *)
  ps_slo_compliance : float;  (** fraction of ops within the budget *)
  ps_slo_ok : bool;
}

type report = {
  r_backend : string;  (** ["sim"] or ["domains"] *)
  r_workers : int;
  r_seed : int;
  r_config : config;
  r_slo_spec : string;  (** e.g. ["op_p95<8192"] *)
  r_result : Driver.result;
  r_phases : phase_summary list;
  r_modes : (string * string) list;  (** final per-partition modes *)
  r_verified : bool;
}

val run :
  ?progress:(string -> unit) ->
  backend:[ `Sim of int | `Domains of float ] ->
  workers:int ->
  seed:int ->
  config ->
  report
(** One tuned run under the driver ([`Sim cycles] is deterministic:
    identical config + seed ⇒ identical report, including every histogram
    bucket). *)

val checks : report -> (string * Workload.verdict) list
(** [store_invariant] (no consistency violation), [all_phases_ran]
    (every phase completed operations), [latencies_recorded] (histograms
    are non-empty wherever ops ran). *)

val to_table : report -> Table.t
val to_json : report -> Json.t
