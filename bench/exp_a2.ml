(* R-A2 (ablation): cost-model sensitivity.

   The simulator's conclusions should not hinge on the exact cost
   constants.  The headline comparison (R-F2: per-partition-tuned vs. the
   best global configuration) is re-run across a grid of visible-read and
   lock-acquisition costs; the table reports the tuned/global throughput
   ratio per cell.  Ratios > 1 mean the paper's conclusion survives that
   cost assumption. *)

open Partstm_simcore
open Partstm_workloads

let run_ratio (cfg : Bench_config.t) ~model ~workers =
  let throughput strategy =
    Bench_config.run_workload cfg ~workers ~strategy ~model (Workload.get "mixed")
  in
  let tuned = throughput Strategy.tuned in
  let best_global =
    Float.max (throughput Strategy.shared_invisible) (throughput Strategy.shared_visible)
  in
  tuned /. best_global

let run (cfg : Bench_config.t) =
  Bench_config.section "R-A2 (ablation): cost-model sensitivity of the R-F2 conclusion";
  let workers = 8 in
  let vread_costs = if cfg.Bench_config.quick then [ 6; 24 ] else [ 6; 12; 24; 48 ] in
  let lock_costs = if cfg.Bench_config.quick then [ 15; 60 ] else [ 15; 30; 60 ] in
  let table =
    Partstm_util.Table.create
      ~title:
        (Printf.sprintf
           "tuned / best-global throughput ratio, mixed app, %d cores (>1 = conclusion holds)"
           workers)
      ~header:("lock cost \\ vread cost" :: List.map string_of_int vread_costs)
  in
  List.iter
    (fun lock_acquire ->
      let row =
        string_of_int lock_acquire
        :: List.map
             (fun read_visible ->
               let model = { Cost_model.default with read_visible; lock_acquire } in
               Printf.sprintf "%.2f" (run_ratio cfg ~model ~workers))
             vread_costs
      in
      Partstm_util.Table.add_row table row)
    lock_costs;
  Partstm_util.Table.print table;
  print_newline ()
