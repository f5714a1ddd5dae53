(* R-A1 (ablation): contention managers under high contention.

   Not a figure of the paper, but an ablation over a design choice the
   DESIGN.md calls out: how much of the visible/invisible story depends on
   the contention manager.  The contended linked list runs at max cores
   under each CM x visibility combination. *)

open Partstm_stm
open Partstm_core
open Partstm_harness
open Partstm_workloads

let contention_managers =
  [
    ("suicide", Cm.Suicide);
    ("backoff", Cm.default);
    ("constant-256", Cm.Constant 256);
  ]

let run (cfg : Bench_config.t) =
  Bench_config.section "R-A1 (ablation): contention manager x read visibility, contended list";
  let workers = List.fold_left max 1 (Bench_config.worker_counts cfg) in
  let table =
    Partstm_util.Table.create
      ~title:(Printf.sprintf "intset ll-u60, %d cores (txn/Mcycle, abort rate)" workers)
      ~header:[ "contention manager"; "invisible"; "visible" ]
  in
  List.iter
    (fun (cm_name, cm) ->
      let cell strategy =
        let system =
          System.create ~max_workers:(workers + 8) ~contention_manager:cm ()
        in
        let state = Intset.setup system ~strategy Intset.contended_list in
        let result =
          Driver.run
            ~mode:(Driver.default_sim ~cycles:(Bench_config.sim_cycles cfg) ())
            ~workers
            (fun ctx -> Intset.worker state ctx)
        in
        let snapshot = Partition.snapshot (Intset.partition state) in
        Printf.sprintf "%.0f (ab %.2f)" result.Driver.throughput
          (Region_stats.abort_rate snapshot)
      in
      Partstm_util.Table.add_row table
        [ cm_name; cell Strategy.global_invisible; cell Strategy.global_visible ])
    contention_managers;
  Partstm_util.Table.print table;
  print_newline ()
