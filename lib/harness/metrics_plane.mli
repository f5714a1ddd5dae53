(** The always-on metrics plane: one object bundling the per-period
    telemetry series, the OpenMetrics exporter, the SLO tracker and the
    worker × partition affinity matrix for a partition registry.

    Each {!sample} reads every partition's [Region_stats] snapshot and
    mode (the hot paths keep their existing counters and never touch the
    plane) and records the per-partition, per-period telemetry {!series}
    that {!Telemetry} exports. The SLO tracker is fed from the affinity
    tap's whole-attempt commit/abort latency histograms (the tap watches
    attempts, never reads or writes). The OpenMetrics exposition is
    rendered when asked from the last sample, the latency histograms and
    the SLO statuses, either one-shot ({!openmetrics}, {!save}) or over a
    scrape endpoint ({!serve} / {!poll_server}) driven by the driver's
    shared service domain. *)

open Partstm_stm
open Partstm_obs
open Partstm_core

type t

(** One row of the telemetry series: one partition in one sampling period. *)
type sample = {
  sm_index : int;  (** sampling period, 0-based *)
  sm_time : int;
      (** plane clock at the sample: virtual cycles (Simulated) or
          nanoseconds since start (Domains) under {!Driver.run} *)
  sm_partition : string;
  sm_mode : Mode.t;  (** mode at sample time *)
  sm_delta : Region_stats.snapshot;  (** activity during this period *)
  sm_total : Region_stats.snapshot;  (** cumulative counters at sample time *)
}

val create : ?slos:Slo.spec list -> Registry.t -> t
(** SLO specs resolve their [sp_source] against the plane's latency
    histograms: ["commit"] (begin → commit) and ["abort"] (begin →
    rollback). Raises [Invalid_argument] on an unknown source or a repeated
    objective name ({!Slo.add}). Partitions
    existing now start the series from their current counters; partitions
    registered later start from zero. *)

val slo : t -> Slo.t
val affinity : t -> Affinity.t

val attach : t -> unit
(** Take the affinity matrix's stripe baseline and install its
    attempt-only latency tap on the registry's engine (only while no
    transaction is in flight). The series needs no tap: an unattached
    plane still records it. *)

val detach : t -> unit

val set_clock : t -> (unit -> int) -> unit
(** Clock for latency histograms and series times (virtual cycles or wall
    nanoseconds); without one, both read 0. *)

val clear_clock : t -> unit

val sample : t -> unit
(** One sampling period: append one {!type-sample} row per partition
    (counter deltas since the previous call, stamped with the plane's
    clock), keep each partition's snapshot and mode for the exposition,
    close one SLO window. Single-threaded (service domain / fiber). *)

val samples : t -> int
(** Number of {!sample} calls so far: the series' period count. *)

val series : t -> sample list
(** Chronological, one row per partition per period. At most 100_000 rows
    stay in memory; each row past that evicts the oldest in O(1) (and the
    period deltas then no longer sum to the final snapshots — see
    {!dropped_samples}). *)

val dropped_samples : t -> int
(** Rows evicted from the series so far. *)

val partitions : t -> string list
(** Names of the partitions in the series, in registration order. *)

val name_of_region : Registry.t -> int -> string
(** Partition name for a region id ([string_of_int] fallback); the one
    region-naming rule of every report and artifact. *)

val openmetrics : t -> string
(** OpenMetrics exposition ({!Openmetrics.render}) of the last sample:
    per partition, the [Region_stats] counters ([partstm_<field>_total])
    and the abort-rate, update-ratio and granularity gauges (all 0 until
    the partition's first sample); the commit/abort latency histograms;
    one compliance, budget-burn and window-ok gauge per SLO objective; and
    the sample count. Families are sorted by name and series by label
    value, so the text is byte-stable. *)

val serve : ?port:int -> t -> int
(** Start the scrape endpoint on 127.0.0.1 (default ephemeral port);
    returns the bound port. The listener only answers while {!poll_server}
    is being called. *)

val poll_server : t -> unit
val stop_server : t -> unit

val has_server : t -> bool
(** True between {!serve} and {!stop_server} — the driver's service loop
    uses this to keep polling even when nothing else is scheduled. *)

val save : ?dir:string -> basename:string -> t -> string list
(** Write [basename.om] (OpenMetrics text), [basename_affinity.csv],
    [basename_affinity.json] and [basename_slo.json] under [dir] (default
    ["results"], created with its parents if missing) through
    {!Partstm_util.Fs.write_file}; returns the paths written. *)
