(* R-A3 (ablation): write-back vs. write-through updates.

   The third per-partition design axis (TinySTM's write strategy): in-place
   writes with undo logs make commits free and aborts expensive.  Expected
   shape: write-through wins on low-conflict write-heavy partitions (bank
   transfers) and loses on the contended list where aborts dominate; the
   tuner picks per partition. *)

open Partstm_workloads

let strategies =
  [
    ("write-back", Strategy.global_invisible);
    ("write-through", Strategy.Fixed Strategy.write_through);
    ("tuned", Strategy.tuned);
  ]

let scenarios =
  [
    ("bank (low-conflict writers)", Workload.get "bank");
    ("intset ll-u60 (contended)", Workload.intset "ll-u60" Intset.contended_list);
  ]

let run (cfg : Bench_config.t) =
  Bench_config.section "R-A3 (ablation): write-back vs write-through updates";
  let workers = List.fold_left max 1 (Bench_config.worker_counts cfg) in
  let table =
    Partstm_util.Table.create
      ~title:(Printf.sprintf "update strategy x workload, %d cores (txn/Mcycle)" workers)
      ~header:("workload" :: List.map fst strategies)
  in
  List.iter
    (fun (name, workload) ->
      let row =
        name
        :: List.map
             (fun (_, strategy) ->
               Printf.sprintf "%.0f" (Bench_config.run_workload cfg ~workers ~strategy workload))
             strategies
      in
      Partstm_util.Table.add_row table row)
    scenarios;
  Partstm_util.Table.print table;
  print_newline ()
