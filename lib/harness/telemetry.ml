(* Telemetry: per-partition time-series sampling over a [Driver.run].

   A telemetry instance watches every partition of a registry.  The driver
   schedules [sample] once per sampling period on a dedicated fiber
   (Simulated backend, virtual-time ticks) or domain (Domains backend,
   wall-clock), and calls [finish] after the run to capture the tail period;
   each call records, for every partition, the delta of all statistics
   counters since the previous sample plus the partition's current mode.
   Tuner decisions arrive as structured events through [attach_tuner]
   (wired automatically by [Driver.run]) and are stamped with the backend's
   clock.

   The result is the per-period trace the paper's evaluation plots: update
   ratio, abort rate and throughput per partition per period, the abort-cause
   breakdown (lock conflicts / reader conflicts / validation failures), and
   the tuner's decision log — exportable as CSV and JSON and renderable as
   ASCII tables and sparklines via [Figure].

   Threading: [sample]/[finish] are called from a single thread at a time
   (the driver's telemetry fiber/domain); counter shards have single writers
   and tolerate slightly stale concurrent reads, exactly like the tuner. *)

open Partstm_util
open Partstm_stm
open Partstm_core

type sample = {
  sm_index : int;  (* sampling period, 0-based *)
  sm_time : float;  (* virtual cycles (Simulated) or seconds (Domains) since run start *)
  sm_partition : string;
  sm_mode : Mode.t;  (* mode at sample time *)
  sm_delta : Region_stats.snapshot;  (* activity during this period *)
  sm_total : Region_stats.snapshot;  (* cumulative counters at sample time *)
}

type decision = { dc_time : float; dc_event : Tuner.event }

type entry = { t_partition : Partition.t; mutable t_prev : Region_stats.snapshot }

type t = {
  registry : Registry.t;
  mutable entries : entry list;  (* registration order *)
  mutable samples : sample list;  (* newest first *)
  mutable sample_count : int;
  mutable dropped : int;
  mutable periods : int;
  mutable decisions : decision list;  (* newest first *)
  mutable clock : (unit -> float) option;
  mutable attached : Tuner.t list;
}

(* Bound on the in-memory record count; the oldest records go past it. *)
let max_samples = 100_000

let create registry =
  let entries =
    List.map
      (fun partition -> { t_partition = partition; t_prev = Partition.snapshot partition })
      (Registry.partitions registry)
  in
  {
    registry;
    entries;
    samples = [];
    sample_count = 0;
    dropped = 0;
    periods = 0;
    decisions = [];
    clock = None;
    attached = [];
  }

(* Partitions present at [create] start from their current counters (so
   setup traffic recorded before the telemetry existed is excluded);
   partitions that appear later start from zero (their whole life happens
   inside the observed run). *)
let sync_entries t =
  List.iter
    (fun partition ->
      if not (List.exists (fun e -> e.t_partition == partition) t.entries) then
        t.entries <-
          t.entries @ [ { t_partition = partition; t_prev = Region_stats.empty_snapshot } ])
    (Registry.partitions t.registry)

let record t sample =
  if t.sample_count >= max_samples then begin
    t.samples <- List.filteri (fun i _ -> i < max_samples - 1) t.samples;
    t.dropped <- t.dropped + (t.sample_count - (max_samples - 1));
    t.sample_count <- max_samples - 1
  end;
  t.samples <- sample :: t.samples;
  t.sample_count <- t.sample_count + 1

let sample t ~time =
  sync_entries t;
  let index = t.periods in
  t.periods <- t.periods + 1;
  List.iter
    (fun entry ->
      let partition = entry.t_partition in
      let current = Partition.snapshot partition in
      let delta = Region_stats.diff ~current ~previous:entry.t_prev in
      entry.t_prev <- current;
      record t
        {
          sm_index = index;
          sm_time = time;
          sm_partition = Partition.name partition;
          sm_mode = Partition.mode partition;
          sm_delta = delta;
          sm_total = current;
        })
    t.entries

(* The final, possibly partial period: workers may overrun the nominal
   deadline mid-transaction, so the driver calls this after the run with the
   actual end time; afterwards the per-period deltas sum to the final
   snapshots (provided nothing was dropped). *)
let finish t ~time = sample t ~time

let set_clock t clock = t.clock <- Some clock
let clear_clock t = t.clock <- None

let record_decision t event =
  let time =
    match t.clock with
    | Some clock -> ( try clock () with _ -> Float.nan)
    | None -> Float.nan
  in
  t.decisions <- { dc_time = time; dc_event = event } :: t.decisions

let attach_tuner t tuner =
  if not (List.memq tuner t.attached) then begin
    t.attached <- tuner :: t.attached;
    Tuner.on_event tuner (record_decision t)
  end

(* -- Accessors --------------------------------------------------------------- *)

let samples t = List.rev t.samples
let decisions t = List.rev t.decisions
let periods t = t.periods
let dropped_samples t = t.dropped

let partitions t = List.map (fun e -> Partition.name e.t_partition) t.entries

let add_snapshots a b =
  Region_stats.
    {
      s_commits = a.s_commits + b.s_commits;
      s_ro_commits = a.s_ro_commits + b.s_ro_commits;
      s_aborts = a.s_aborts + b.s_aborts;
      s_reads = a.s_reads + b.s_reads;
      s_writes = a.s_writes + b.s_writes;
      s_lock_conflicts = a.s_lock_conflicts + b.s_lock_conflicts;
      s_reader_conflicts = a.s_reader_conflicts + b.s_reader_conflicts;
      s_validation_fails = a.s_validation_fails + b.s_validation_fails;
      s_extensions = a.s_extensions + b.s_extensions;
      s_mode_switches = a.s_mode_switches + b.s_mode_switches;
      s_ro_aborts = a.s_ro_aborts + b.s_ro_aborts;
      s_mv_hist_reads = a.s_mv_hist_reads + b.s_mv_hist_reads;
      s_ctl_commits = a.s_ctl_commits + b.s_ctl_commits;
    }

(* Summed per-period deltas per partition (equals the final snapshot minus
   the baseline captured at [create]). *)
let totals t =
  let table = Hashtbl.create 8 in
  List.iter
    (fun s ->
      let acc =
        match Hashtbl.find_opt table s.sm_partition with
        | Some acc -> acc
        | None -> Region_stats.empty_snapshot
      in
      Hashtbl.replace table s.sm_partition (add_snapshots acc s.sm_delta))
    t.samples;
  List.filter_map
    (fun name ->
      Hashtbl.find_opt table name |> Option.map (fun snapshot -> (name, snapshot)))
    (partitions t)

(* -- Export ------------------------------------------------------------------ *)

let counter_columns = List.map fst Region_stats.fields

let columns =
  [ "sample"; "time"; "partition"; "visibility"; "granularity_log2"; "update"; "protocol" ]
  @ counter_columns
  @ [ "abort_rate"; "update_ratio" ]

let format_time time = Printf.sprintf "%.9g" time

let sample_row s =
  [
    string_of_int s.sm_index;
    format_time s.sm_time;
    s.sm_partition;
    Mode.visibility_to_string s.sm_mode.Mode.visibility;
    string_of_int s.sm_mode.Mode.granularity_log2;
    Mode.update_to_string s.sm_mode.Mode.update;
    Protocol.to_string s.sm_mode.Mode.protocol;
  ]
  @ List.map (fun (_, get) -> string_of_int (get s.sm_delta)) Region_stats.fields
  @ [
      Printf.sprintf "%.6f" (Region_stats.abort_rate s.sm_delta);
      Printf.sprintf "%.6f" (Region_stats.update_txn_ratio s.sm_delta);
    ]

let to_csv_rows t = columns :: List.rev_map sample_row t.samples

let mode_json (mode : Mode.t) =
  Json.Obj
    [
      ("visibility", Json.String (Mode.visibility_to_string mode.Mode.visibility));
      ("granularity_log2", Json.Int mode.Mode.granularity_log2);
      ("update", Json.String (Mode.update_to_string mode.Mode.update));
      ("protocol", Json.String (Protocol.to_string mode.Mode.protocol));
    ]

let snapshot_json snapshot =
  Json.Obj (List.map (fun (name, get) -> (name, Json.Int (get snapshot))) Region_stats.fields)

let sample_json s =
  Json.Obj
    [
      ("sample", Json.Int s.sm_index);
      ("time", Json.Float s.sm_time);
      ("partition", Json.String s.sm_partition);
      ("mode", mode_json s.sm_mode);
      ("delta", snapshot_json s.sm_delta);
      ("total", snapshot_json s.sm_total);
      ("abort_rate", Json.Float (Region_stats.abort_rate s.sm_delta));
      ("update_ratio", Json.Float (Region_stats.update_txn_ratio s.sm_delta));
    ]

let decision_json d =
  Json.Obj
    [
      ("time", Json.Float d.dc_time);
      ("tick", Json.Int d.dc_event.Tuner.ev_tick);
      ("partition", Json.String d.dc_event.Tuner.ev_partition);
      ("from", mode_json d.dc_event.Tuner.ev_from);
      ("to", mode_json d.dc_event.Tuner.ev_to);
      ("abort_rate", Json.Float d.dc_event.Tuner.ev_abort_rate);
      ("update_ratio", Json.Float d.dc_event.Tuner.ev_update_ratio);
      ("why", Tuning_policy.why_to_json d.dc_event.Tuner.ev_why);
    ]

let to_json t =
  Json.Obj
    [
      ("schema", Json.String "partstm.telemetry/1");
      ("periods", Json.Int t.periods);
      ("dropped_samples", Json.Int t.dropped);
      ("partitions", Json.List (List.map (fun name -> Json.String name) (partitions t)));
      ("samples", Json.List (List.rev_map sample_json t.samples));
      ("decisions", Json.List (List.rev_map decision_json t.decisions));
    ]

let save ?(dir = "results") ~basename t =
  let csv_path = Filename.concat dir (basename ^ ".csv") in
  Csv.write_file csv_path (to_csv_rows t);
  let json_path = Filename.concat dir (basename ^ ".json") in
  Fs.write_file json_path (Json.to_string (to_json t) ^ "\n");
  (csv_path, json_path)

(* -- Rendering --------------------------------------------------------------- *)

let metric_of_name name =
  match name with
  | "abort_rate" -> Some Region_stats.abort_rate
  | "update_ratio" -> Some Region_stats.update_txn_ratio
  | name ->
      List.assoc_opt name Region_stats.fields
      |> Option.map (fun get snapshot -> float_of_int (get snapshot))

let series t name metric =
  List.filter_map
    (fun s ->
      if s.sm_partition = name then Some (float_of_int s.sm_index, metric s.sm_delta) else None)
    (samples t)

let to_figure ?(metric = "commits") t =
  match metric_of_name metric with
  | None -> invalid_arg (Printf.sprintf "Telemetry.to_figure: unknown metric %S" metric)
  | Some get ->
      let figure =
        Figure.create
          ~id:(Printf.sprintf "telemetry-%s" metric)
          ~title:(Printf.sprintf "per-partition %s per period" metric)
          ~xlabel:"period" ~ylabel:metric
      in
      List.iter
        (fun name -> Figure.add_series figure ~label:name (series t name get))
        (partitions t);
      figure

let trace_table t =
  let table =
    Table.create ~title:"per-partition telemetry trace"
      ~header:
        [
          "sample"; "time"; "partition"; "mode"; "commits"; "aborts"; "abort-rate"; "update-ratio";
        ]
  in
  List.iter
    (fun s ->
      Table.add_row table
        [
          string_of_int s.sm_index;
          format_time s.sm_time;
          s.sm_partition;
          Fmt.str "%a" Mode.pp s.sm_mode;
          string_of_int s.sm_delta.Region_stats.s_commits;
          string_of_int s.sm_delta.Region_stats.s_aborts;
          Printf.sprintf "%.3f" (Region_stats.abort_rate s.sm_delta);
          Printf.sprintf "%.3f" (Region_stats.update_txn_ratio s.sm_delta);
        ])
    (samples t);
  table

let summary_table t =
  let totals = totals t in
  let table =
    Table.create ~title:"per-partition telemetry summary"
      ~header:
        [
          "partition"; "periods"; "commits"; "aborts"; "abort-rate"; "switches"; "final mode";
          "commits/period";
        ]
  in
  List.iter
    (fun (name, sum) ->
      let spark =
        Figure.sparkline
          (List.filter_map
             (fun s ->
               if s.sm_partition = name then
                 Some (float_of_int s.sm_delta.Region_stats.s_commits)
               else None)
             (samples t))
      in
      let final_mode =
        match Registry.find_by_name t.registry name with
        | Some partition -> Fmt.str "%a" Mode.pp (Partition.mode partition)
        | None -> "-"
      in
      Table.add_row table
        [
          name;
          string_of_int t.periods;
          string_of_int sum.Region_stats.s_commits;
          string_of_int sum.Region_stats.s_aborts;
          Printf.sprintf "%.3f" (Region_stats.abort_rate sum);
          string_of_int sum.Region_stats.s_mode_switches;
          final_mode;
          spark;
        ])
    totals;
  table

let pp_decision ppf d =
  if Float.is_nan d.dc_time then Fmt.pf ppf "%a" Tuner.pp_event d.dc_event
  else Fmt.pf ppf "t=%-10s %a" (format_time d.dc_time) Tuner.pp_event d.dc_event
