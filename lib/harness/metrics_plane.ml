(* The always-on metrics plane (DESIGN.md §8.3): glue between the STM's
   existing statistics and the observability surface.

   Nothing here touches a transaction hot path.  Workers keep bumping their
   striped [Region_stats] counters exactly as before; each [sample] (from
   the driver's service domain or fiber) mirrors the current per-partition
   snapshot into the metrics registry with service-stripe writes, refreshes
   the derived gauges, appends one row per partition to the bounded
   telemetry series (the per-period view of the paper's evaluation, which
   [Telemetry] exports), and closes one SLO window.  Latency comes from the
   [Affinity] engine tap, which watches attempts only (whole-attempt
   begin → commit / rollback) and never a read or a write; the same module
   reads the worker × partition matrix exported for sharing-aware mapping
   off the per-worker [Region_stats] stripes. *)

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
  mi_counters : (Metrics.counter * (Region_stats.snapshot -> int)) list;
  mi_abort_rate : Metrics.gauge;
  mi_update_ratio : Metrics.gauge;
  mi_granularity : Metrics.gauge;
}

type t = {
  registry : Registry.t;
  metrics : Metrics.t;
  slo : Slo.t;
  affinity : Affinity.t;
  sample_counter : Metrics.counter;
  series : sample Ring.t;
  mutable mirrors : mirror list;  (* registration order *)
  mutable sample_count : int;
  mutable clock : unit -> int;
  mutable server : Metrics_server.t option;
}

(* Bound on the in-memory series; the oldest rows go past it. *)
let max_series = 100_000

let metrics t = t.metrics
let slo t = t.slo
let affinity t = t.affinity
let samples t = t.sample_count
let series t = Ring.to_list t.series
let dropped_samples t = Ring.dropped t.series
let partitions t = List.map (fun m -> Partition.name m.mi_partition) t.mirrors

let make_mirror metrics ~baseline partition =
  let labels = [ ("partition", Partition.name partition) ] in
  let counters =
    List.map
      (fun (field, get) ->
        ( Metrics.counter metrics ~labels
            ~help:(Printf.sprintf "Region_stats %s, mirrored per sampling period" field)
            (Printf.sprintf "partstm_%s" field),
          get ))
      Region_stats.fields
  in
  {
    mi_partition = partition;
    mi_prev = baseline partition;
    mi_counters = counters;
    mi_abort_rate =
      Metrics.gauge metrics ~labels ~help:"aborts / attempts over the partition's lifetime"
        "partstm_abort_rate";
    mi_update_ratio =
      Metrics.gauge metrics ~labels ~help:"update-transaction commit ratio"
        "partstm_update_ratio";
    mi_granularity =
      Metrics.gauge metrics ~labels ~help:"current conflict-detection granularity (log2 slots)"
        "partstm_granularity_log2";
  }

(* Partitions present at [create] start the series from their current
   counters (setup traffic before the plane existed is excluded);
   partitions that appear later start from zero (their whole life happens
   inside the observed run). *)
let sync_mirrors t ~baseline =
  List.iter
    (fun partition ->
      if not (List.exists (fun m -> m.mi_partition == partition) t.mirrors) then
        t.mirrors <- t.mirrors @ [ make_mirror t.metrics ~baseline partition ])
    (Registry.partitions t.registry)

let create ?max_workers ?(slos = []) registry =
  let metrics = Metrics.create ?max_workers () in
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
  Metrics.histogram_fn metrics ~help:"whole-attempt begin->commit latency (clock units)"
    "partstm_commit_latency" (fun () -> Affinity.commit_latency affinity);
  Metrics.histogram_fn metrics ~help:"whole-attempt begin->rollback latency (clock units)"
    "partstm_abort_latency" (fun () -> Affinity.abort_latency affinity);
  List.iter
    (fun (spec : Slo.spec) ->
      let labels = [ ("objective", spec.Slo.sp_name) ] in
      let status () =
        List.find_opt (fun st -> st.Slo.st_name = spec.Slo.sp_name) (Slo.statuses slo)
      in
      Metrics.gauge_fn metrics ~labels ~help:"cumulative SLO compliance (fraction of good events)"
        "partstm_slo_compliance" (fun () ->
          match status () with Some st -> st.Slo.st_compliance | None -> 1.0);
      Metrics.gauge_fn metrics ~labels ~help:"fraction of the cumulative error budget consumed"
        "partstm_slo_budget_burn" (fun () ->
          match status () with Some st -> st.Slo.st_budget_burn | None -> 0.0);
      Metrics.gauge_fn metrics ~labels
        ~help:"1 when the last evaluated window met the objective, else 0" "partstm_slo_window_ok"
        (fun () ->
          match status () with Some st -> (if st.Slo.st_window_ok then 1.0 else 0.0) | None -> 1.0))
    slos;
  let sample_counter =
    Metrics.counter metrics ~help:"metrics-plane sampling periods" "partstm_plane_samples"
  in
  let t =
    {
      registry;
      metrics;
      slo;
      affinity;
      sample_counter;
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
  Metrics.set_counter t.sample_counter t.sample_count;
  List.iter
    (fun m ->
      let snapshot = Partition.snapshot m.mi_partition in
      let mode = Partition.mode m.mi_partition in
      List.iter (fun (counter, get) -> Metrics.set_counter counter (get snapshot)) m.mi_counters;
      Metrics.set_gauge m.mi_abort_rate (Region_stats.abort_rate snapshot);
      Metrics.set_gauge m.mi_update_ratio (Region_stats.update_txn_ratio snapshot);
      Metrics.set_gauge m.mi_granularity (float_of_int mode.Mode.granularity_log2);
      Ring.push t.series
        {
          sm_index = index;
          sm_time = time;
          sm_partition = Partition.name m.mi_partition;
          sm_mode = mode;
          sm_delta = Region_stats.diff ~current:snapshot ~previous:m.mi_prev;
          sm_total = snapshot;
        };
      m.mi_prev <- snapshot)
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

let openmetrics t = Metrics.render t.metrics

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
