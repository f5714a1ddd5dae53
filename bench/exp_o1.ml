(* R-O1: observability overhead — what tracing costs, and when it is free.

   Three claims, two backends:

   1. Simulated: tracer/profiler callbacks charge no virtual time, so an
      instrumented run must reproduce the uninstrumented schedule cycle for
      cycle.  Asserted (<= 2% throughput delta; in practice identical).
      This is what makes `partstm profile --backend sim` a non-perturbing
      microscope.

   2. Domains, hooks disabled: a run with the tracer merely *created* (no
      tap attached) pays only the engine's one-load-one-branch hook sites —
      indistinguishable from baseline (reported against the baseline's own
      run-to-run spread, budget 2%).

   3. Domains, hooks enabled: the real cost of 1-in-64 sampled and full
      tracing (spans plus the exact hot-orec and latency aggregates),
      reported as throughput deltas.
      Wall-clock numbers on a shared container are noisy; arms are
      interleaved and medians reported. *)

open Partstm_core
open Partstm_harness
open Partstm_workloads
module Obs = Partstm_obs

type arm = {
  arm_name : string;
  (* A fresh tracer per run, or None for the baseline. *)
  arm_tracer : unit -> Obs.Tracer.t option;
  arm_attach : bool;  (* [false] creates the tracer but never attaches it *)
}

let arms =
  [
    { arm_name = "baseline"; arm_tracer = (fun () -> None); arm_attach = false };
    { arm_name = "disabled"; arm_tracer = (fun () -> Some (Obs.Tracer.create ())); arm_attach = false };
    {
      arm_name = "sampled-64";
      arm_tracer = (fun () -> Some (Obs.Tracer.create ~sample_every:64 ()));
      arm_attach = true;
    };
    { arm_name = "full"; arm_tracer = (fun () -> Some (Obs.Tracer.create ())); arm_attach = true };
  ]

let run_once ~mode ~workers ~seed arm =
  let system = System.create ~max_workers:(workers + 8) () in
  let state = Bank.setup system ~strategy:Strategy.shared_invisible Bank.default_config in
  Registry.reset_stats (System.registry system);
  let tracer = arm.arm_tracer () in
  if arm.arm_attach then
    Option.iter (fun tracer -> Obs.Tracer.attach tracer (System.engine system)) tracer;
  let result = Driver.run ?tracer ~seed ~mode ~workers (Bank.worker state) in
  Option.iter Obs.Tracer.detach tracer;
  if not (Bank.check state) then failwith "R-O1: bank invariant violated";
  result.Driver.throughput

(* Best-of-N: the standard noise-robust throughput estimator on a shared
   box — interference only ever slows a run down. *)
let best samples = List.fold_left Float.max 0.0 samples

let delta_pct ~baseline v =
  if baseline = 0.0 then 0.0 else 100.0 *. (baseline -. v) /. baseline

let run (cfg : Bench_config.t) =
  Bench_config.section "R-O1: tracing overhead";
  let workers = 8 in

  (* -- Simulated: schedule non-perturbation ------------------------------- *)
  let sim_mode = Bench_config.default_mode cfg in
  let sim_tp arm = run_once ~mode:sim_mode ~workers ~seed:42 arm in
  let sim_base = sim_tp (List.nth arms 0) in
  let sim_table =
    Partstm_util.Table.create ~title:"simulated backend (bank, 8 workers)"
      ~header:[ "arm"; "txn/Mcycle"; "delta%" ]
  in
  let sim_ok = ref true in
  List.iter
    (fun arm ->
      let tp = sim_tp arm in
      let d = delta_pct ~baseline:sim_base tp in
      if Float.abs d > 2.0 then sim_ok := false;
      Partstm_util.Table.add_row sim_table
        [ arm.arm_name; Printf.sprintf "%.1f" tp; Printf.sprintf "%+.2f" d ])
    arms;
  Partstm_util.Table.print sim_table;
  Printf.printf
    "sim schedule non-perturbation (all arms within 2%% of baseline): %b\n\n" !sim_ok;
  if not !sim_ok then
    failwith "R-O1: tracing perturbed the deterministic simulated schedule";

  (* -- Domains: wall-clock cost ------------------------------------------- *)
  (* Few workers: on a small container, oversubscribed domains measure the
     OS scheduler, not the hooks. *)
  let dom_workers = 2 in
  let seconds = if cfg.Bench_config.quick then 0.2 else 0.5 in
  let reps = if cfg.Bench_config.quick then 3 else 5 in
  let mode = Driver.Domains { seconds } in
  (* One discarded warm-up (code paths, allocator), then interleave arms
     across repetitions so drift hits all arms equally. *)
  ignore (run_once ~mode ~workers:dom_workers ~seed:41 (List.nth arms 0));
  let samples = Hashtbl.create 8 in
  for rep = 1 to reps do
    List.iter
      (fun arm ->
        let tp = run_once ~mode ~workers:dom_workers ~seed:(42 + rep) arm in
        Hashtbl.replace samples arm.arm_name
          (tp :: Option.value ~default:[] (Hashtbl.find_opt samples arm.arm_name)))
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
  let disabled_overhead = delta_pct ~baseline:base (est "disabled") in
  Printf.printf "disabled-hooks overhead: %+.2f%% (budget: 2%%, within: %b)\n"
    disabled_overhead
    (disabled_overhead <= 2.0);
  Printf.printf
    "(wall-clock best-of-%d on a shared container; the sim table above is the \
     deterministic check)\n"
    reps
