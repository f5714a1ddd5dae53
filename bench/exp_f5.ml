(* R-F5: application benchmarks (STAMP-style) — vacation, kmeans, genome,
   labyrinth.

   Partitioned+tuned against the unpartitioned baseline.  Expected shapes:
   vacation gains modestly (contended trees, tuner helps); kmeans and
   genome expose the partition-tracking overhead the paper acknowledges
   ("despite the runtime overhead...") — conflict-light workloads pay the
   bookkeeping without recouping it, which EXPERIMENTS.md discusses. *)

open Partstm_workloads
module Figure = Partstm_harness.Figure

let apps = [ "vacation"; "kmeans"; "genome"; "labyrinth" ]

let strategies =
  [
    ("unpartitioned", Strategy.shared_invisible);
    ("partitioned", Strategy.global_invisible);
    ("partitioned-tuned", Strategy.tuned);
  ]

let run (cfg : Bench_config.t) =
  Bench_config.section "R-F5: application benchmarks (vacation / kmeans / genome)";
  List.iter
    (fun app_name ->
      let figure =
        Figure.create ~id:("rf5-" ^ app_name) ~title:("R-F5 " ^ app_name) ~xlabel:"cores"
          ~ylabel:"txn/Mcycle"
      in
      List.iter
        (fun (label, strategy) ->
          let points =
            List.map
              (fun workers ->
                ( float_of_int workers,
                  Bench_config.run_workload cfg ~workers ~strategy (Workload.get app_name) ))
              (Bench_config.worker_counts cfg)
          in
          Figure.add_series figure ~label points)
        strategies;
      Bench_config.emit cfg figure)
    apps
