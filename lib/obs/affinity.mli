(** Worker × partition access-affinity matrix: reads / writes / commits /
    aborts per (worker, region) cell, plus whole-attempt commit and abort
    latency histograms (begin → commit / rollback, in the installed clock's
    units).

    The cells come from the per-worker [Region_stats] stripes that the
    workers already bump: a cell is a worker's stripe in a region now,
    minus the same stripe at {!attach}, frozen at {!detach}. All four
    columns are exact since attach once the worker domains have joined
    (reads and writes count every [Txn.read] / [Txn.write] call, as the
    statistics do), and keeping them costs the access path nothing.

    The engine tap watches attempts only ([rec_begin], [rec_commit],
    [rec_abort]) for the latency histograms, so the engine calls it on no
    read or write. Latency is sharded by descriptor id like [Tracer]
    (single writer per shard below the collision threshold); merged at
    read time. *)

open Partstm_util
open Partstm_stm

type t

val create : (unit -> Region.t list) -> t
(** [create regions]: the matrix covers the regions [regions ()] lists
    when it is read; a region first listed after {!attach} counts from
    zero. *)

val set_clock : t -> (unit -> int) -> unit
val clear_clock : t -> unit

val attach : t -> Engine.t -> unit
(** Take the stripe baseline and install the latency tap (only while no
    transaction is in flight). A second attach after {!detach} restarts
    the cells from a fresh baseline; the latency histograms keep
    accumulating. Raises [Invalid_argument] while attached. *)

val detach : t -> unit
(** Remove the tap and freeze the cells as they stand. *)

type cell_total = {
  ax_worker : int;
  ax_region : int;
  ax_reads : int;
  ax_writes : int;
  ax_commits : int;
  ax_aborts : int;
}

val cells : t -> cell_total list
(** Non-zero cells since {!attach}, sorted by (worker, region); [[]] before
    the first attach. While attached, a live read of the stripes (slightly
    stale under running domains, exact once they have joined). *)

val commit_latency : t -> Histogram.t
val abort_latency : t -> Histogram.t

val to_csv_rows : ?name_of_region:(int -> string) -> t -> string list list
val to_json : ?name_of_region:(int -> string) -> t -> Json.t
(** Canonical (sorted-key) export, schema ["partstm.affinity/2"]. *)
