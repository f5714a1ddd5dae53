(* Telemetry exports: the per-period trace the paper's evaluation plots —
   update ratio, abort rate and throughput per partition per period, the
   abort-cause breakdown (lock conflicts / reader conflicts / validation
   failures) and the tuner's decision log — as CSV and JSON, and as ASCII
   tables and sparklines via [Figure].

   Nothing here samples: the rows are [Metrics_plane.series] (one row per
   partition per [Metrics_plane.sample], the last one after the run) and
   the decisions are [Tuner.trace], both stamped with the run clock that
   [Driver.run] installs. *)

open Partstm_util
open Partstm_stm
open Partstm_core
open Metrics_plane

let rows_of plane name = List.filter (fun s -> s.sm_partition = name) (series plane)

(* Summed period deltas per partition with its last row.  A partition's
   retained rows are consecutive periods, so their sum is the last total
   minus the counters just before the first retained row. *)
let totals plane =
  List.filter_map
    (fun name ->
      match List.rev (rows_of plane name) with
      | [] -> None
      | last :: _ as rows ->
          let first = List.nth rows (List.length rows - 1) in
          let before = Region_stats.diff ~current:first.sm_total ~previous:first.sm_delta in
          Some (name, last, Region_stats.diff ~current:last.sm_total ~previous:before))
    (partitions plane)

(* -- Export ------------------------------------------------------------------ *)

let columns =
  [ "sample"; "time"; "partition"; "visibility"; "granularity_log2"; "update"; "protocol" ]
  @ List.map fst Region_stats.fields
  @ [ "abort_rate"; "update_ratio" ]

let sample_row s =
  [
    string_of_int s.sm_index;
    string_of_int s.sm_time;
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

let to_csv_rows plane = columns :: List.map sample_row (series plane)

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
      ("time", Json.Float (float_of_int s.sm_time));
      ("partition", Json.String s.sm_partition);
      ("mode", mode_json s.sm_mode);
      ("delta", snapshot_json s.sm_delta);
      ("total", snapshot_json s.sm_total);
      ("abort_rate", Json.Float (Region_stats.abort_rate s.sm_delta));
      ("update_ratio", Json.Float (Region_stats.update_txn_ratio s.sm_delta));
    ]

let decision_json (ev : Tuner.event) =
  Json.Obj
    [
      ("time", Json.Float (float_of_int ev.Tuner.ev_time));
      ("tick", Json.Int ev.Tuner.ev_tick);
      ("partition", Json.String ev.Tuner.ev_partition);
      ("from", mode_json ev.Tuner.ev_from);
      ("to", mode_json ev.Tuner.ev_to);
      ("abort_rate", Json.Float ev.Tuner.ev_why.Tuning_policy.w_abort_rate);
      ("update_ratio", Json.Float ev.Tuner.ev_why.Tuning_policy.w_update_ratio);
      ("why", Tuning_policy.why_to_json ev.Tuner.ev_why);
    ]

let to_json ~tuner plane =
  Json.Obj
    [
      ("schema", Json.String "partstm.telemetry/2");
      ("periods", Json.Int (samples plane));
      ("dropped_samples", Json.Int (dropped_samples plane));
      ("dropped_decisions", Json.Int (Option.fold ~none:0 ~some:Tuner.dropped_events tuner));
      ("partitions", Json.List (List.map (fun name -> Json.String name) (partitions plane)));
      ("samples", Json.List (List.map sample_json (series plane)));
      ( "decisions",
        Json.List (List.map decision_json (Option.fold ~none:[] ~some:Tuner.trace tuner)) );
    ]

let save ?(dir = "results") ~basename ~tuner plane =
  let csv_path = Filename.concat dir (basename ^ ".csv") in
  Csv.write_file csv_path (to_csv_rows plane);
  let json_path = Filename.concat dir (basename ^ ".json") in
  Fs.write_file json_path (Json.to_string (to_json ~tuner plane) ^ "\n");
  (csv_path, json_path)

(* -- Rendering --------------------------------------------------------------- *)

let metric_of_name name =
  match name with
  | "abort_rate" -> Some Region_stats.abort_rate
  | "update_ratio" -> Some Region_stats.update_txn_ratio
  | name ->
      List.assoc_opt name Region_stats.fields
      |> Option.map (fun get snapshot -> float_of_int (get snapshot))

let to_figure ?(metric = "commits") plane =
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
        (fun name ->
          Figure.add_series figure ~label:name
            (List.map
               (fun s -> (float_of_int s.sm_index, get s.sm_delta))
               (rows_of plane name)))
        (partitions plane);
      figure

let trace_table plane =
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
          string_of_int s.sm_time;
          s.sm_partition;
          Fmt.str "%a" Mode.pp s.sm_mode;
          string_of_int s.sm_delta.Region_stats.s_commits;
          string_of_int s.sm_delta.Region_stats.s_aborts;
          Printf.sprintf "%.3f" (Region_stats.abort_rate s.sm_delta);
          Printf.sprintf "%.3f" (Region_stats.update_txn_ratio s.sm_delta);
        ])
    (series plane);
  table

let summary_table plane =
  let table =
    Table.create ~title:"per-partition telemetry summary"
      ~header:
        [
          "partition"; "periods"; "commits"; "aborts"; "abort-rate"; "switches"; "final mode";
          "commits/period";
        ]
  in
  List.iter
    (fun (name, last, sum) ->
      let spark =
        Figure.sparkline
          (List.map
             (fun s -> float_of_int s.sm_delta.Region_stats.s_commits)
             (rows_of plane name))
      in
      Table.add_row table
        [
          name;
          string_of_int (samples plane);
          string_of_int sum.Region_stats.s_commits;
          string_of_int sum.Region_stats.s_aborts;
          Printf.sprintf "%.3f" (Region_stats.abort_rate sum);
          string_of_int sum.Region_stats.s_mode_switches;
          Fmt.str "%a" Mode.pp last.sm_mode;
          spark;
        ])
    (totals plane);
  table
