(** Worker × partition access-affinity matrix: an [Engine] tap accumulating
    reads / writes / commits / aborts per (worker, region) cell, plus
    whole-attempt commit and abort latency histograms (begin → commit /
    rollback, in the installed clock's units).

    Commit and abort cells follow the engine's [rec_touch] contract, so
    per-region sums over workers reconcile exactly with [Region_stats]
    commit/abort totals once the worker domains have joined. Read/write
    cells count engine-observed access events, which dedup repeat holds —
    close to, but not identical with, the raw [Region_stats] read counter.

    Sharded by descriptor id like [Tracer] (single writer per
    shard below the collision threshold); merged at read time. *)

open Partstm_util
open Partstm_stm

type t

val create : ?shards:int -> unit -> t
val set_clock : t -> (unit -> int) -> unit
val clear_clock : t -> unit

val recorder : t -> Engine.recorder

val attach : t -> Engine.t -> unit
(** Install as an engine tap (only while no transaction is in flight). *)

val detach : t -> unit

type cell_total = {
  ax_worker : int;
  ax_region : int;
  ax_reads : int;
  ax_writes : int;
  ax_commits : int;
  ax_aborts : int;
}

val cells : t -> cell_total list
(** Merged matrix, sorted by (worker, region). *)

val region_totals : t -> (int * int * int) list
(** Per-region [(region, commits, aborts)] summed over workers — the
    quantities that reconcile exactly with [Region_stats]. *)

val commit_latency : t -> Histogram.t
val abort_latency : t -> Histogram.t

val to_csv_rows : ?name_of_region:(int -> string) -> t -> string list list
val to_json : ?name_of_region:(int -> string) -> t -> Json.t
(** Canonical (sorted-key) export, schema ["partstm.affinity/1"]. *)
