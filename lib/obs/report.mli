(** ASCII tables and heatmaps for the [partstm profile], [metrics] and
    [top] subcommands. *)

open Partstm_util

val span_summary : Tracer.t -> Table.t
(** Attempts, commits, aborts, abort rate, sampling rate, span retention
    and tuner-decision count. *)

val hot_slots_table : ?top_k:int -> ?name_of_region:(int -> string) -> Tracer.t -> Table.t
(** The [top_k] (default 10) hottest orecs with per-cause breakdown. *)

val latency_table : ?name_of_region:(int -> string) -> Tracer.t -> Table.t
(** Per-partition commit/abort/lock-wait latency count, mean, p50/p95/p99
    and max; empty histograms render as an explicit ["n/a"] row (count 0)
    rather than being omitted. *)

val slo_table : Slo.t -> Table.t
(** One row per objective: last-window size and quantile value, cumulative
    compliance, violated/evaluated windows, error-budget burn and status. *)

val affinity_table : ?name_of_region:(int -> string) -> Affinity.t -> Table.t
(** Worker rows × partition columns; each cell shows total accesses
    (reads+writes) and commits/aborts. *)

val heatmap : ?name_of_region:(int -> string) -> Tracer.t -> string
(** One row per partition: the lock table compressed to at most 64
    columns, conflict weight shown on a 10-level intensity
    scale normalised to the row's hottest column. *)
