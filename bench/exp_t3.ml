(* R-T3: tuning decision traces — which configuration each partition
   converges to.

   Runs the mixed application and the contended linked list under the tuner
   with an unattached metrics plane recording the telemetry series, and
   prints the per-period abort-rate trace, the
   full decision log (virtual-time stamped) and the final per-partition
   modes with their mode-switch counts.  Expected convergence: mixed-stats
   to whole-region granularity, mixed-tree refined invisible, the hot list
   towards visible reads. *)

open Partstm_stm
open Partstm_core
open Partstm_harness
open Partstm_workloads

let trace_of cfg (Workload.Workload w) =
  let name = w.name and workers = 16 in
  let p = Workload.prepare ~workers ~strategy:Strategy.tuned w.setup in
  let system = p.system and tuner = Option.get p.tuner in
  let plane = Metrics_plane.create (System.registry system) in
  let result =
    Driver.run ~tuner ~metrics:plane ~metrics_steps:40
      ~mode:(Driver.default_sim ~cycles:(2 * Bench_config.sim_cycles cfg) ())
      ~workers (w.worker p.state)
  in
  if not (w.check p.state ~total_ops:result.Driver.total_ops) then
    failwith ("R-T3: invariants violated on " ^ name);
  Printf.printf "%s: %d tuner decisions over %d sampling periods\n" name (Tuner.switches tuner)
    (Metrics_plane.samples plane);
  List.iter (fun ev -> Format.printf "  %a@." Tuner.pp_event ev) (Tuner.trace tuner);
  let abort_figure = Telemetry.to_figure ~metric:"abort_rate" plane in
  print_string (Figure.ascii_plot abort_figure);
  let table =
    Partstm_util.Table.create
      ~title:(name ^ ": final per-partition configuration")
      ~header:[ "partition"; "tvars"; "switches"; "final mode" ]
  in
  List.iter
    (fun row ->
      Partstm_util.Table.add_row table
        [
          row.Registry.row_name;
          string_of_int row.Registry.row_tvars;
          string_of_int row.Registry.row_stats.Region_stats.s_mode_switches;
          Fmt.str "%a" Mode.pp row.Registry.row_mode;
        ])
    (Registry.report (System.registry system));
  Partstm_util.Table.print table;
  (match cfg.Bench_config.csv_dir with
  | Some dir ->
      let csv, json =
        Telemetry.save ~dir ~basename:("rt3-" ^ name ^ "-telemetry") ~tuner:(Some tuner) plane
      in
      Printf.printf "(telemetry: %s, %s)\n" csv json
  | None -> ());
  print_newline ()

let run (cfg : Bench_config.t) =
  Bench_config.section "R-T3: tuning decision traces and converged configurations";
  trace_of cfg (Workload.get "mixed");
  trace_of cfg (Workload.intset "intset-ll-u60" Intset.contended_list)
