(* R-F4: dynamic workloads — throughput over time under phase changes.

   The partition alternates between read-mostly and update-heavy phases.
   Static configurations are wrong in some phases; the runtime tuner
   re-tunes after each flip.  Every run carries an unattached metrics
   plane, so the time series is its sampled per-period commit trace of the
   phased partition (not ad-hoc bucket printing); the tuned run
   additionally yields a per-period abort-rate trace and the stamped
   decision log (feeding R-T3). *)

open Partstm_core
open Partstm_harness
open Partstm_workloads
module Figure = Partstm_harness.Figure

let partition_name = "phased-tree"

let run_series (cfg : Bench_config.t) ~strategy =
  let workers = 8 in
  let p =
    Workload.prepare ~workers ~strategy (fun system ~strategy ->
        Phased.setup system ~strategy Phased.default_config)
  in
  let plane = Metrics_plane.create (System.registry p.system) in
  let cycles = 2 * Bench_config.sim_cycles cfg in
  ignore
    (Driver.run ?tuner:p.tuner ~tuner_steps:80 ~metrics:plane ~metrics_steps:80
       ~mode:(Driver.default_sim ~cycles ()) ~workers (Phased.worker p.state));
  if not (Phased.check p.state) then failwith "phased: invariants violated";
  (plane, p.tuner)

let commit_series plane =
  List.filter_map
    (fun s ->
      if s.Metrics_plane.sm_partition = partition_name then
        Some
          ( float_of_int s.Metrics_plane.sm_index,
            float_of_int s.Metrics_plane.sm_delta.Partstm_stm.Region_stats.s_commits )
      else None)
    (Metrics_plane.series plane)

let run (cfg : Bench_config.t) =
  Bench_config.section "R-F4: dynamic workload phases (throughput over time)";
  let figure =
    Figure.create ~id:"rf4-phased" ~title:"R-F4 phased workload (8 cores)"
      ~xlabel:"sampling period" ~ylabel:"commits/period"
  in
  let tuned = ref None in
  List.iter
    (fun (label, strategy) ->
      let plane, tuner = run_series cfg ~strategy in
      Option.iter (fun tuner -> tuned := Some (plane, tuner)) tuner;
      Figure.add_series figure ~label (commit_series plane))
    [
      ("static-invisible", Strategy.global_invisible);
      ("static-visible", Strategy.global_visible);
      ("tuned", Strategy.tuned);
    ];
  Bench_config.emit cfg figure;
  match !tuned with
  | Some (plane, tuner) ->
      let abort_figure = Telemetry.to_figure ~metric:"abort_rate" plane in
      print_string (Figure.ascii_plot abort_figure);
      print_newline ();
      Printf.printf "Tuner decisions during the tuned run:\n";
      List.iter (fun ev -> Format.printf "  %a@." Tuner.pp_event ev) (Tuner.trace tuner);
      (match cfg.Bench_config.csv_dir with
      | Some dir ->
          let csv, json =
            Telemetry.save ~dir ~basename:"rf4-tuned-telemetry" ~tuner:(Some tuner) plane
          in
          Printf.printf "(telemetry: %s, %s)\n" csv json
      | None -> ());
      print_newline ()
  | None -> ()
