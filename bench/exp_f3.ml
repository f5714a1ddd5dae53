(* R-F3: conflict-detection granularity.

   Two parts, matching the paper's granularity discussion:
   (a) a sweep of one global granularity at max cores showing that no single
       setting fits both the tiny hot array and the large cold array;
   (b) throughput vs. cores for the two global extremes, the per-partition
       expert assignment (hot coarse / cold fine), and the tuner. *)

open Partstm_workloads
module Figure = Partstm_harness.Figure

let max_cores (cfg : Bench_config.t) =
  List.fold_left max 1 (Bench_config.worker_counts cfg)

let run_point cfg ~workers ~strategy =
  Bench_config.run_workload cfg ~workers ~strategy (Workload.get "granularity")

let run (cfg : Bench_config.t) =
  Bench_config.section "R-F3: conflict-detection granularity";
  (* (a) global granularity sweep *)
  let sweep =
    Figure.create ~id:"rf3-sweep"
      ~title:(Printf.sprintf "R-F3a global granularity sweep (%d cores)" (max_cores cfg))
      ~xlabel:"log2(orecs)" ~ylabel:"txn/Mcycle"
  in
  let gs = if cfg.Bench_config.quick then [ 0; 4; 8; 14 ] else [ 0; 2; 4; 6; 8; 10; 12; 14 ] in
  let sweep_points =
    List.map
      (fun g ->
        ( float_of_int g,
          run_point cfg ~workers:(max_cores cfg)
            ~strategy:(Granularity.global_strategy ~granularity_log2:g) ))
      gs
  in
  Figure.add_series sweep ~label:"global-g" sweep_points;
  Bench_config.emit cfg sweep;
  (* (b) scaling: extremes vs per-partition *)
  let scaling =
    Figure.create ~id:"rf3-scaling" ~title:"R-F3b granularity: per-partition vs global extremes"
      ~xlabel:"cores" ~ylabel:"txn/Mcycle"
  in
  List.iter
    (fun (label, strategy) ->
      let points =
        List.map
          (fun workers -> (float_of_int workers, run_point cfg ~workers ~strategy))
          (Bench_config.worker_counts cfg)
      in
      Figure.add_series scaling ~label points)
    [
      ("global-coarse-g0", Granularity.global_strategy ~granularity_log2:0);
      ("global-fine-g14", Granularity.global_strategy ~granularity_log2:14);
      ("per-partition-static", Granularity.expert_strategy);
      ("per-partition-tuned", Strategy.tuned);
    ];
  Bench_config.emit cfg scaling
