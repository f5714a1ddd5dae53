(* R-F2: the multi-structure application — the paper's headline figure.

   Per-partition configuration (static expert or runtime-tuned) against the
   unpartitioned baseline and against single global configurations.  The
   expected shape: per-partition beats every global line with a widening gap
   as cores grow; the tuned line tracks the static expert without manual
   configuration. *)

open Partstm_workloads
module Figure = Partstm_harness.Figure

let strategies =
  [
    ("unpartitioned-inv", Strategy.shared_invisible);
    ("unpartitioned-vis", Strategy.shared_visible);
    ("partitioned-global-inv", Strategy.global_invisible);
    ("per-partition-static", Mixed.expert_strategy);
    ("per-partition-tuned", Strategy.tuned);
  ]

let run (cfg : Bench_config.t) =
  Bench_config.section "R-F2: multi-structure application (per-partition vs. global)";
  let figure =
    Figure.create ~id:"rf2-mixed" ~title:"R-F2 mixed application" ~xlabel:"cores"
      ~ylabel:"txn/Mcycle"
  in
  List.iter
    (fun (label, strategy) ->
      let points =
        List.map
          (fun workers ->
            let throughput =
              Bench_config.run_workload cfg ~workers ~strategy (Workload.get "mixed")
            in
            (float_of_int workers, throughput))
          (Bench_config.worker_counts cfg)
      in
      Figure.add_series figure ~label points)
    strategies;
  Bench_config.emit cfg figure
