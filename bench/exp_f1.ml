(* R-F1: integer-set microbenchmarks — throughput vs. cores, per structure.

   Reproduces the paper's motivating observation: the best read-visibility
   strategy differs per data structure.  The update-heavy linked list
   crosses over to visible reads at high core counts; the read-mostly
   red/black tree (and skip list, hash set) stay with invisible reads; the
   tuned configuration tracks the winner of each. *)

open Partstm_workloads
module Figure = Partstm_harness.Figure

(* Per-structure workloads, following the usual intset parameterisations:
   small contended list, larger log-structures. *)
let scenarios =
  [
    ("ll-u60", Intset.contended_list);
    ("sl-u20", { (Intset.default_config Intset.Skip_list) with initial_size = 512; key_range = 1024; update_percent = 20 });
    ("rb-u10", { (Intset.default_config Intset.Rb_tree) with initial_size = 4096; key_range = 8192; update_percent = 10 });
    ("hs-u30", { (Intset.default_config Intset.Hash_set) with initial_size = 512; key_range = 1024; update_percent = 30 });
  ]

let strategies =
  [
    ("invisible", Strategy.global_invisible);
    ("visible", Strategy.global_visible);
    ("tuned", Strategy.tuned);
  ]

let run (cfg : Bench_config.t) =
  Bench_config.section "R-F1: integer-set microbenchmarks (throughput vs. cores)";
  List.iter
    (fun (scenario_name, config) ->
      let figure =
        Figure.create
          ~id:("rf1-" ^ scenario_name)
          ~title:("R-F1 intset " ^ scenario_name)
          ~xlabel:"cores" ~ylabel:"txn/Mcycle"
      in
      List.iter
        (fun (label, strategy) ->
          let points =
            List.map
              (fun workers ->
                let throughput =
                  Bench_config.run_workload cfg ~workers ~strategy
                    (Workload.intset scenario_name config)
                in
                (float_of_int workers, throughput))
              (Bench_config.worker_counts cfg)
          in
          Figure.add_series figure ~label points)
        strategies;
      Bench_config.emit cfg figure)
    scenarios
