(** Per-partition telemetry: time-series statistics sampled over a
    {!Driver.run}, abort-cause breakdowns and tuner-decision traces, with
    CSV/JSON export and ASCII rendering (DESIGN.md §8.1).

    Pass an instance to [Driver.run ~telemetry]; the driver samples it once
    per period on a dedicated fiber (Simulated backend, virtual-time) or
    domain (Domains backend, wall-clock) and takes a final sample after the
    run, so the per-period deltas sum to the final partition snapshots. *)

open Partstm_util
open Partstm_stm
open Partstm_core

type sample = {
  sm_index : int;  (** sampling period, 0-based *)
  sm_time : float;
      (** virtual cycles (Simulated) or seconds (Domains) since run start *)
  sm_partition : string;
  sm_mode : Mode.t;  (** mode at sample time *)
  sm_delta : Region_stats.snapshot;  (** activity during this period *)
  sm_total : Region_stats.snapshot;  (** cumulative counters at sample time *)
}

type decision = { dc_time : float; dc_event : Tuner.event }

type t

val create : Registry.t -> t
(** Watch every partition of [registry]. Partitions existing now are
    baselined at their current counters; partitions registered later are
    baselined at zero. At most 100_000 records stay in memory; the oldest records are evicted past it (and the
    sum-to-snapshot invariant no longer holds — see {!dropped_samples}). *)

val sample : t -> time:float -> unit
(** Record one sampling period: per-partition counter deltas since the last
    call plus current modes. Called by the driver; single-threaded. *)

val finish : t -> time:float -> unit
(** Capture the final (possibly partial) period after the run ends. *)

val set_clock : t -> (unit -> float) -> unit
(** Timestamp source for decision events; installed by the driver for the
    duration of a run. *)

val clear_clock : t -> unit

val attach_tuner : t -> Tuner.t -> unit
(** Subscribe to the tuner's decision events (idempotent per tuner);
    {!Driver.run} does this automatically when given both. *)

val record_decision : t -> Tuner.event -> unit

val samples : t -> sample list
(** Chronological, one record per partition per period. *)

val decisions : t -> decision list
(** Chronological tuner-decision log, stamped with the backend clock. *)

val periods : t -> int
val dropped_samples : t -> int
val partitions : t -> string list

val totals : t -> (string * Region_stats.snapshot) list
(** Summed per-period deltas per partition (equals final snapshot minus the
    baseline captured at {!create} when nothing was dropped). *)

val columns : string list
(** CSV header: sample, time, partition, mode fields, the
    {!Partstm_stm.Region_stats.fields} counters, abort_rate, update_ratio. *)

val to_csv_rows : t -> string list list
val to_json : t -> Json.t

val save : ?dir:string -> basename:string -> t -> string * string
(** Write [dir]/[basename].csv and [dir]/[basename].json through
    {!Partstm_util.Fs.write_file} ([dir] is created with its parents if
    missing); returns both paths. *)

val to_figure : ?metric:string -> t -> Figure.t
(** One series per partition of a per-period metric (a counter name from
    {!Partstm_stm.Region_stats.fields}, ["abort_rate"] or ["update_ratio"];
    default ["commits"]). *)

val trace_table : t -> Table.t
(** The per-period rows as an aligned table (the CLI [trace] output). *)

val summary_table : t -> Table.t
(** Per-partition totals with mode switches and a commits-per-period
    sparkline (the CLI [stats] output). *)

val pp_decision : Format.formatter -> decision -> unit
