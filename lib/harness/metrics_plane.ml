(* The always-on metrics plane (DESIGN.md §8.3): glue between the STM's
   existing statistics and the observability surface.

   Nothing here touches a transaction hot path.  Workers keep bumping their
   striped [Region_stats] counters exactly as before; each [sample] (from
   the driver's service domain or fiber) takes the current per-partition
   snapshot and mode, appends one row per partition to the bounded
   telemetry series (the per-period view of the paper's evaluation, which
   [Telemetry] exports), and closes one SLO window.  [Region_stats] is the
   store and the series the one per-period copy; the OpenMetrics
   exposition is rendered on demand from the last sample.  Latency comes
   from the [Affinity] engine tap, which watches attempts only
   (whole-attempt begin → commit / rollback) and never a read or a write;
   the same module reads the worker × partition matrix exported for
   sharing-aware mapping off the per-worker [Region_stats] stripes. *)

open Partstm_util
open Partstm_stm
open Partstm_obs
open Partstm_core

type sample = {
  sm_index : int;
  sm_time : int;
  sm_partition : string;
  sm_mode : Mode.t;
  sm_delta : Region_stats.snapshot;
  sm_total : Region_stats.snapshot;
}

type mirror = {
  mi_partition : Partition.t;
  mutable mi_prev : Region_stats.snapshot;  (* counters at the previous sample *)
  mutable mi_mode : Mode.t option;  (* mode at the last sample; [None] before it *)
}

type t = {
  registry : Registry.t;
  slo : Slo.t;
  affinity : Affinity.t;
  series : sample Ring.t;
  mutable mirrors : mirror list;  (* registration order *)
  mutable sample_count : int;
  mutable clock : unit -> int;
  mutable server : Metrics_server.t option;
}

(* Bound on the in-memory series; the oldest rows go past it. *)
let max_series = 100_000

let slo t = t.slo
let affinity t = t.affinity
let samples t = t.sample_count
let series t = Ring.to_list t.series
let dropped_samples t = Ring.dropped t.series
let partitions t = List.map (fun m -> Partition.name m.mi_partition) t.mirrors

(* Partitions present at [create] start the series from their current
   counters (setup traffic before the plane existed is excluded);
   partitions that appear later start from zero (their whole life happens
   inside the observed run). *)
let sync_mirrors t ~baseline =
  List.iter
    (fun partition ->
      if not (List.exists (fun m -> m.mi_partition == partition) t.mirrors) then
        t.mirrors <-
          t.mirrors @ [ { mi_partition = partition; mi_prev = baseline partition; mi_mode = None } ])
    (Registry.partitions t.registry)

let create ?(slos = []) registry =
  let affinity =
    Affinity.create (fun () -> List.map Partition.region (Registry.partitions registry))
  in
  let slo = Slo.create () in
  List.iter
    (fun (spec : Slo.spec) ->
      let source =
        match spec.Slo.sp_source with
        | "commit" -> fun () -> Affinity.commit_latency affinity
        | "abort" -> fun () -> Affinity.abort_latency affinity
        | other ->
            invalid_arg
              (Printf.sprintf "Metrics_plane.create: unknown SLO source %S (want commit|abort)"
                 other)
      in
      ignore (Slo.add slo spec ~source))
    slos;
  let t =
    {
      registry;
      slo;
      affinity;
      series = Ring.create ~capacity:max_series;
      mirrors = [];
      sample_count = 0;
      clock = Fun.const 0;
      server = None;
    }
  in
  sync_mirrors t ~baseline:Partition.snapshot;
  t

let attach t = Affinity.attach t.affinity (Registry.engine t.registry)
let detach t = Affinity.detach t.affinity
let set_clock t clock =
  t.clock <- clock;
  Affinity.set_clock t.affinity clock

let clear_clock t =
  t.clock <- Fun.const 0;
  Affinity.clear_clock t.affinity

let sample t =
  sync_mirrors t ~baseline:(Fun.const Region_stats.empty_snapshot);
  let index = t.sample_count in
  let time = t.clock () in
  t.sample_count <- index + 1;
  List.iter
    (fun m ->
      let snapshot = Partition.snapshot m.mi_partition in
      let mode = Partition.mode m.mi_partition in
      Ring.push t.series
        {
          sm_index = index;
          sm_time = time;
          sm_partition = Partition.name m.mi_partition;
          sm_mode = mode;
          sm_delta = Region_stats.diff ~current:snapshot ~previous:m.mi_prev;
          sm_total = snapshot;
        };
      m.mi_prev <- snapshot;
      m.mi_mode <- Some mode)
    t.mirrors;
  Slo.evaluate t.slo

let name_of_region registry region =
  match
    List.find_opt
      (fun p -> (Partition.region p).Region.id = region)
      (Registry.partitions registry)
  with
  | Some p -> Partition.name p
  | None -> string_of_int region

(* -- Exposition ---------------------------------------------------------------- *)

(* The exposition is rendered from what the plane already holds: each
   partition's last sampled snapshot and mode (zeros until its first
   sample), the sample count, the affinity tap's latency histograms and
   the SLO statuses.  Families are sorted by name and the series of one
   family by label value, so exports are byte-stable. *)

let family kind name help samples =
  { Openmetrics.f_name = name; f_kind = kind; f_help = help; f_samples = samples }

let series_sample name labels value =
  { Openmetrics.s_name = name; s_labels = labels; s_value = value }

(* Cumulative [le] buckets, then [+Inf], [_count] and [_sum]. *)
let histogram_samples name h =
  let count = float_of_int (Histogram.count h) in
  let _, buckets =
    List.fold_left
      (fun (cum, acc) (upper, n) ->
        let cum = cum + n in
        ( cum,
          series_sample (name ^ "_bucket") [ ("le", string_of_int upper) ] (float_of_int cum)
          :: acc ))
      (0, []) (Histogram.buckets h)
  in
  List.rev buckets
  @ [
      series_sample (name ^ "_bucket") [ ("le", "+Inf") ] count;
      series_sample (name ^ "_count") [] count;
      series_sample (name ^ "_sum") [] (float_of_int (Histogram.sum h));
    ]

let openmetrics_families t =
  let partitions =
    List.map
      (fun m ->
        let snapshot, granularity =
          match m.mi_mode with
          | Some mode -> (m.mi_prev, mode.Mode.granularity_log2)
          | None -> (Region_stats.empty_snapshot, 0)
        in
        (Partition.name m.mi_partition, snapshot, granularity))
      t.mirrors
    |> List.stable_sort (fun (a, _, _) (b, _, _) -> String.compare a b)
  in
  let per_partition kind name help value =
    family kind name help
      (List.map
         (fun (partition, snapshot, granularity) ->
           series_sample
             (if kind = Openmetrics.Counter then name ^ "_total" else name)
             [ ("partition", partition) ]
             (value snapshot granularity))
         partitions)
  in
  let statuses =
    List.sort (fun a b -> String.compare a.Slo.st_name b.Slo.st_name) (Slo.statuses t.slo)
  in
  let per_objective name help value =
    family Openmetrics.Gauge name help
      (List.map
         (fun st -> series_sample name [ ("objective", st.Slo.st_name) ] (value st))
         statuses)
  in
  List.map
    (fun (field, get) ->
      per_partition Openmetrics.Counter ("partstm_" ^ field)
        (Printf.sprintf "Region_stats %s, mirrored per sampling period" field)
        (fun snapshot _ -> float_of_int (get snapshot)))
    Region_stats.fields
  @ [
      per_partition Openmetrics.Gauge "partstm_abort_rate"
        "aborts / attempts over the partition's lifetime" (fun snapshot _ ->
          Region_stats.abort_rate snapshot);
      per_partition Openmetrics.Gauge "partstm_update_ratio" "update-transaction commit ratio"
        (fun snapshot _ -> Region_stats.update_txn_ratio snapshot);
      per_partition Openmetrics.Gauge "partstm_granularity_log2"
        "current conflict-detection granularity (log2 slots)" (fun _ granularity ->
          float_of_int granularity);
      family Openmetrics.Histogram "partstm_commit_latency"
        "whole-attempt begin->commit latency (clock units)"
        (histogram_samples "partstm_commit_latency" (Affinity.commit_latency t.affinity));
      family Openmetrics.Histogram "partstm_abort_latency"
        "whole-attempt begin->rollback latency (clock units)"
        (histogram_samples "partstm_abort_latency" (Affinity.abort_latency t.affinity));
      per_objective "partstm_slo_compliance" "cumulative SLO compliance (fraction of good events)"
        (fun st -> st.Slo.st_compliance);
      per_objective "partstm_slo_budget_burn" "fraction of the cumulative error budget consumed"
        (fun st -> st.Slo.st_budget_burn);
      per_objective "partstm_slo_window_ok"
        "1 when the last evaluated window met the objective, else 0" (fun st ->
          if st.Slo.st_window_ok then 1.0 else 0.0);
      family Openmetrics.Counter "partstm_plane_samples" "metrics-plane sampling periods"
        [ series_sample "partstm_plane_samples_total" [] (float_of_int t.sample_count) ];
    ]
  |> List.filter (fun f -> f.Openmetrics.f_samples <> [])
  |> List.sort (fun a b -> String.compare a.Openmetrics.f_name b.Openmetrics.f_name)

let openmetrics t = Openmetrics.render (openmetrics_families t)

(* -- Scrape endpoint --------------------------------------------------------- *)

let serve ?port t =
  match t.server with
  | Some server -> Metrics_server.port server
  | None ->
      let server = Metrics_server.start ?port ~content:(fun () -> openmetrics t) () in
      t.server <- Some server;
      Metrics_server.port server

let poll_server t = Option.iter Metrics_server.poll t.server
let has_server t = t.server <> None

let stop_server t =
  Option.iter Metrics_server.stop t.server;
  t.server <- None

(* -- File sink ---------------------------------------------------------------- *)

let save ?(dir = "results") ~basename t =
  let name_of_region = name_of_region t.registry in
  let om_path = Filename.concat dir (basename ^ ".om") in
  Fs.write_file om_path (openmetrics t);
  let csv_path = Filename.concat dir (basename ^ "_affinity.csv") in
  Csv.write_file csv_path (Affinity.to_csv_rows ~name_of_region t.affinity);
  let affinity_json = Filename.concat dir (basename ^ "_affinity.json") in
  Fs.write_file affinity_json (Json.to_string (Affinity.to_json ~name_of_region t.affinity) ^ "\n");
  let slo_json = Filename.concat dir (basename ^ "_slo.json") in
  Fs.write_file slo_json (Json.to_string (Slo.to_json t.slo) ^ "\n");
  [ om_path; csv_path; affinity_json; slo_json ]
