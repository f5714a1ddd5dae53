(* R-OBS2: metrics-plane overhead — what always-on metrics cost.

   Claims, mirroring R-O1's structure:

   1. Simulated, default plane ([metrics_steps = 0]): the plane's engine
      taps charge no virtual time and no observer fiber is added, so a
      metrics-on run must replay the metrics-off schedule *bit for bit* —
      asserted on the per-worker operation vectors, not just aggregate
      throughput (<= 2% budget on throughput as a redundant guard).

   2. Simulated, in-run sampling ([metrics_steps = 20]): adds one observer
      fiber, which legitimately perturbs the schedule; the delta is
      reported, not asserted.

   3. Domains: wall-clock cost of the taps plus periodic sampling, reported
      as best-of-N throughput deltas (noisy on a shared container; the sim
      rows are the deterministic check). *)

open Partstm_core
open Partstm_harness
open Partstm_workloads
module Obs = Partstm_obs

type arm = { arm_name : string; arm_metrics : bool; arm_steps : int }

let arms =
  [
    { arm_name = "baseline"; arm_metrics = false; arm_steps = 0 };
    { arm_name = "metrics-final"; arm_metrics = true; arm_steps = 0 };
    { arm_name = "metrics-20"; arm_metrics = true; arm_steps = 20 };
  ]

let slo backend =
  match Obs.Slo.parse (if backend = `Sim then "commit_p99<8192" else "commit_p99<1000000") with
  | Ok spec -> spec
  | Error msg -> failwith ("R-OBS2: bad SLO spec: " ^ msg)

let run_once ~mode ~backend ~workers ~seed arm =
  let p =
    Workload.prepare ~workers ~strategy:Strategy.shared_invisible (fun system ~strategy ->
        Bank.setup system ~strategy Bank.default_config)
  in
  let metrics =
    if arm.arm_metrics then begin
      let plane = Metrics_plane.create ~slos:[ slo backend ] (System.registry p.system) in
      Metrics_plane.attach plane;
      Some plane
    end
    else None
  in
  let result =
    Driver.run ?metrics ~metrics_steps:arm.arm_steps ~seed ~mode ~workers (Bank.worker p.state)
  in
  Option.iter Metrics_plane.detach metrics;
  if not (Bank.check p.state) then failwith "R-OBS2: bank invariant violated";
  (result, metrics)

let best samples = List.fold_left Float.max 0.0 samples

let delta_pct ~baseline v =
  if baseline = 0.0 then 0.0 else 100.0 *. (baseline -. v) /. baseline

let run (cfg : Bench_config.t) =
  Bench_config.section "R-OBS2: always-on metrics-plane overhead";
  let workers = 8 in

  (* -- Simulated: bit-identical schedules with the default plane ----------- *)
  let sim_mode = Bench_config.default_mode cfg in
  let sim_run arm = run_once ~mode:sim_mode ~backend:`Sim ~workers ~seed:42 arm in
  let base_result, _ = sim_run (List.nth arms 0) in
  let sim_table =
    Partstm_util.Table.create ~title:"simulated backend (bank, 8 workers)"
      ~header:[ "arm"; "txn/Mcycle"; "delta%"; "schedule" ]
  in
  let identical = ref true in
  List.iter
    (fun arm ->
      let result, metrics = sim_run arm in
      let same = result.Driver.per_worker_ops = base_result.Driver.per_worker_ops in
      let d = delta_pct ~baseline:base_result.Driver.throughput result.Driver.throughput in
      (* Only the no-fiber arm must replay the baseline schedule; in-run
         sampling adds a fiber and is expected to diverge. *)
      if arm.arm_name = "metrics-final" && ((not same) || Float.abs d > 2.0) then
        identical := false;
      (match metrics with
      | Some plane when Metrics_plane.samples plane < 1 ->
          failwith "R-OBS2: metrics plane never sampled"
      | _ -> ());
      Partstm_util.Table.add_row sim_table
        [
          arm.arm_name;
          Printf.sprintf "%.1f" result.Driver.throughput;
          Printf.sprintf "%+.2f" d;
          (if same then "identical" else "diverged");
        ])
    arms;
  Partstm_util.Table.print sim_table;
  Printf.printf
    "sim metrics-final bit-identical to metrics-off (per-worker ops) and within 2%%: %b\n\n"
    !identical;
  if not !identical then
    failwith "R-OBS2: default metrics plane perturbed the deterministic simulated schedule";

  (* -- Domains: wall-clock cost of taps + sampling ------------------------- *)
  let dom_workers = 2 in
  let seconds = if cfg.Bench_config.quick then 0.2 else 0.5 in
  let reps = if cfg.Bench_config.quick then 3 else 5 in
  let mode = Driver.Domains { seconds } in
  ignore (run_once ~mode ~backend:`Domains ~workers:dom_workers ~seed:41 (List.nth arms 0));
  let samples = Hashtbl.create 8 in
  for rep = 1 to reps do
    List.iter
      (fun arm ->
        let result, _ = run_once ~mode ~backend:`Domains ~workers:dom_workers ~seed:(42 + rep) arm in
        Hashtbl.replace samples arm.arm_name
          (result.Driver.throughput
          :: Option.value ~default:[] (Hashtbl.find_opt samples arm.arm_name)))
      arms
  done;
  let est name = best (Hashtbl.find samples name) in
  let base = est "baseline" in
  let dom_table =
    Partstm_util.Table.create
      ~title:
        (Printf.sprintf "domains backend (bank, %d workers, best of %d)" dom_workers reps)
      ~header:[ "arm"; "txn/s"; "overhead%" ]
  in
  List.iter
    (fun arm ->
      Partstm_util.Table.add_row dom_table
        [
          arm.arm_name;
          Printf.sprintf "%.0f" (est arm.arm_name);
          Printf.sprintf "%+.2f" (delta_pct ~baseline:base (est arm.arm_name));
        ])
    arms;
  Partstm_util.Table.print dom_table;
  Printf.printf
    "(wall-clock best-of-%d on a shared container; the sim table above is the deterministic \
     check)\n"
    reps
