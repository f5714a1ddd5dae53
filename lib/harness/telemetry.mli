(** Per-partition telemetry exports (DESIGN.md §8.1): the per-period series
    a {!Metrics_plane} records ({!Metrics_plane.series}) and a tuner's
    decision log ({!Partstm_core.Tuner.trace}) as CSV/JSON and ASCII
    tables and figures.

    Pass the plane to [Driver.run ~metrics ~metrics_steps]; the driver
    samples it once per period and once more after the run, so the
    per-period deltas sum to the final partition snapshots. Times are in
    run-clock units: virtual cycles (Simulated) or nanoseconds since start
    (Domains). *)

open Partstm_util
open Partstm_core

val columns : string list
(** CSV header: sample, time, partition, mode fields, the
    {!Partstm_stm.Region_stats.fields} counters, abort_rate, update_ratio. *)

val to_csv_rows : Metrics_plane.t -> string list list
(** {!columns} followed by one row per series row. *)

val to_json : tuner:Tuner.t option -> Metrics_plane.t -> Json.t
(** Schema [partstm.telemetry/2]: periods, dropped_samples,
    dropped_decisions, partitions, samples and the tuner's decisions
    ([[]] without a tuner). *)

val save :
  ?dir:string -> basename:string -> tuner:Tuner.t option -> Metrics_plane.t -> string * string
(** Write [dir]/[basename].csv and [dir]/[basename].json through
    {!Partstm_util.Fs.write_file} ([dir] is created with its parents if
    missing); returns both paths. *)

val to_figure : ?metric:string -> Metrics_plane.t -> Figure.t
(** One series per partition of a per-period metric (a counter name from
    {!Partstm_stm.Region_stats.fields}, ["abort_rate"] or ["update_ratio"];
    default ["commits"]). *)

val trace_table : Metrics_plane.t -> Table.t
(** The per-period rows as an aligned table (the CLI [trace] output). *)

val summary_table : Metrics_plane.t -> Table.t
(** Per-partition summed deltas, mode switches, final mode and a
    commits-per-period sparkline (the CLI [stats] output). *)
