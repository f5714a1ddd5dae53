(* Cross-layer integration tests: compile-time partitioner vs. runtime
   registry, full workload runs with tuning under both backends, and
   end-to-end determinism. *)

open Partstm_core
open Partstm_harness
open Partstm_workloads

let check = Alcotest.check

(* The DSA mirror of each benchmark must derive exactly the partitions the
   runtime workload registers — the paper's compile-time/runtime contract. *)
let test_dsa_matches_runtime name mirror_runtime_names setup =
  Alcotest.test_case (name ^ ": DSA inventory = runtime registry") `Quick (fun () ->
      let system = System.create () in
      let partitions = setup system in
      check Alcotest.(list string) "names line up" mirror_runtime_names
        (List.map Partition.name partitions))

let dsa_cases =
  [
    test_dsa_matches_runtime "mixed"
      (Option.get (Partstm_dsa.Programs.find "mixed")).Partstm_dsa.Programs.runtime_partitions
      (fun system ->
        Mixed.partitions (Mixed.setup system ~strategy:Strategy.global_invisible Mixed.default_config));
    test_dsa_matches_runtime "vacation"
      (Option.get (Partstm_dsa.Programs.find "vacation")).Partstm_dsa.Programs.runtime_partitions
      (fun system ->
        Vacation.partitions
          (Vacation.setup system ~strategy:Strategy.global_invisible Vacation.default_config));
    test_dsa_matches_runtime "kmeans"
      (Option.get (Partstm_dsa.Programs.find "kmeans")).Partstm_dsa.Programs.runtime_partitions
      (fun system ->
        Kmeans.partitions
          (Kmeans.setup system ~strategy:Strategy.global_invisible Kmeans.default_config));
    test_dsa_matches_runtime "genome"
      (Option.get (Partstm_dsa.Programs.find "genome")).Partstm_dsa.Programs.runtime_partitions
      (fun system ->
        Genome.partitions
          (Genome.setup system ~strategy:Strategy.global_invisible Genome.default_config));
    test_dsa_matches_runtime "labyrinth"
      (Option.get (Partstm_dsa.Programs.find "labyrinth")).Partstm_dsa.Programs.runtime_partitions
      (fun system ->
        Labyrinth.partitions
          (Labyrinth.setup system ~strategy:Strategy.global_invisible Labyrinth.default_config));
    test_dsa_matches_runtime "granularity"
      (Option.get (Partstm_dsa.Programs.find "granularity")).Partstm_dsa.Programs.runtime_partitions
      (fun system ->
        Granularity.partitions
          (Granularity.setup system ~strategy:Strategy.global_invisible Granularity.default_config));
  ]

(* Full mixed-application run with the tuner on real domains: structures
   valid, tuner alive, and per-partition statistics populated. *)
let test_mixed_domains_with_tuner () =
  let system = System.create ~max_workers:16 () in
  let w = Mixed.setup system ~strategy:Strategy.tuned Mixed.default_config in
  let tuner = System.tuner system in
  let result =
    Driver.run ~tuner ~tuner_steps:20 ~mode:(Driver.Domains { seconds = 0.6 }) ~workers:3
      (fun ctx -> Mixed.worker w ctx)
  in
  check Alcotest.bool "throughput positive" true (result.Driver.throughput > 0.0);
  check Alcotest.bool "structures valid" true (Mixed.check w);
  check Alcotest.bool "tuner ran" true (Tuner.ticks tuner > 0);
  let report = Registry.report (System.registry system) in
  check Alcotest.int "report covers all partitions" 4 (List.length report);
  List.iter
    (fun row ->
      check Alcotest.bool (row.Registry.row_name ^ " saw traffic") true
        (row.Registry.row_stats.Partstm_stm.Region_stats.s_commits > 0))
    report

(* The simulated backend is fully deterministic end to end, including the
   tuner's decisions. *)
let test_sim_end_to_end_determinism () =
  let run () =
    let system = System.create ~max_workers:16 () in
    let w = Mixed.setup system ~strategy:Strategy.tuned Mixed.default_config in
    let tuner = System.tuner system in
    let result =
      Driver.run ~tuner ~mode:(Driver.default_sim ~cycles:600_000 ()) ~workers:6 (fun ctx ->
          Mixed.worker w ctx)
    in
    let switches =
      List.map (fun e -> (e.Tuner.ev_tick, e.Tuner.ev_partition)) (Tuner.trace tuner)
    in
    (result.Driver.total_ops, switches)
  in
  let a = run () and b = run () in
  check Alcotest.int "same ops" (fst a) (fst b);
  check Alcotest.(list (pair int string)) "same tuning decisions" (snd a) (snd b)

(* Both backends agree on semantics: bank conservation after a tuned run. *)
let test_backends_agree_on_invariants () =
  List.iter
    (fun mode ->
      let system = System.create ~max_workers:16 () in
      let w = Bank.setup system ~strategy:Strategy.tuned Bank.default_config in
      let tuner = System.tuner system in
      ignore (Driver.run ~tuner ~mode ~workers:3 (fun ctx -> Bank.worker w ctx));
      check Alcotest.bool
        ("conserved under " ^ Driver.mode_to_string mode)
        true (Bank.check w))
    [ Driver.default_sim ~cycles:400_000 (); Driver.Domains { seconds = 0.3 } ]

(* Online tuning with quiesce must preserve linearizable effects: the
   granularity workload's increments are exactly conserved across an entire
   tuned run (table swaps included). *)
let test_tuning_preserves_effects () =
  let system = System.create ~max_workers:16 () in
  let w = Granularity.setup system ~strategy:Strategy.tuned Granularity.default_config in
  let tuner = System.tuner system ~cooldown:0 in
  let result =
    Driver.run ~tuner ~tuner_steps:40 ~mode:(Driver.default_sim ~cycles:800_000 ()) ~workers:6
      (fun ctx -> Granularity.worker w ctx)
  in
  check Alcotest.bool "increments conserved across table swaps" true
    (Granularity.check w ~total_ops:result.Driver.total_ops)

(* Each in-run action's step count on both backends: 0 schedules nothing
   (the metrics plane keeps only its final after-run sample, which is also
   its series' only period), and a negative count is rejected before
   anything runs. *)
let test_driver_step_counts () =
  let run ~mode ?(tuner_steps = 40) ?(metrics_steps = 0) () =
    let system = System.create ~max_workers:16 () in
    let w = Bank.setup system ~strategy:Strategy.tuned Bank.default_config in
    let tuner = System.tuner system in
    let metrics = Metrics_plane.create (System.registry system) in
    ignore (Driver.run ~tuner ~tuner_steps ~metrics ~metrics_steps ~mode ~workers:2 (Bank.worker w));
    check Alcotest.bool "bank conserved" true (Bank.check w);
    (Tuner.ticks tuner, metrics)
  in
  List.iter
    (fun mode ->
      let label name = Driver.mode_to_string mode ^ " " ^ name in
      let ticks, _ = run ~mode ~tuner_steps:0 () in
      check Alcotest.int (label "tuner_steps=0: no tuner step") 0 ticks;
      let _, plane = run ~mode ~metrics_steps:0 () in
      check Alcotest.int (label "metrics_steps=0: final sample only") 1
        (Metrics_plane.samples plane);
      let rows = Metrics_plane.series plane in
      check Alcotest.bool (label "metrics_steps=0: one series period") true
        (rows <> [] && List.for_all (fun s -> s.Metrics_plane.sm_index = 0) rows);
      List.iter
        (fun (name, steps) ->
          Alcotest.check_raises (label (name ^ " < 0"))
            (Invalid_argument ("Driver.run: " ^ name))
            (fun () -> ignore (steps ())))
        [
          ("tuner_steps", fun () -> run ~mode ~tuner_steps:(-1) ());
          ("metrics_steps", fun () -> run ~mode ~metrics_steps:(-3) ());
        ])
    [ Driver.default_sim ~cycles:200_000 (); Driver.Domains { seconds = 0.1 } ]

(* Figure plumbing: a small real sweep renders a table and a CSV. *)
let test_figure_pipeline () =
  let figure =
    Figure.create ~id:"itest" ~title:"integration" ~xlabel:"threads" ~ylabel:"ops"
  in
  let points =
    List.map
      (fun workers ->
        let system = System.create ~max_workers:16 () in
        let w =
          Intset.setup system ~strategy:Strategy.global_invisible
            (Intset.default_config Intset.Hash_set)
        in
        let result =
          Driver.run ~mode:(Driver.default_sim ~cycles:100_000 ()) ~workers (fun ctx ->
              Intset.worker w ctx)
        in
        (float_of_int workers, result.Driver.throughput))
      [ 1; 2; 4 ]
  in
  Figure.add_series figure ~label:"hs" points;
  let rendered = Partstm_util.Table.render (Figure.to_table figure) in
  check Alcotest.bool "table rendered" true (String.length rendered > 0);
  let rows = Figure.to_csv_rows figure in
  check Alcotest.int "csv rows" 4 (List.length rows);
  let plot = Figure.ascii_plot figure in
  check Alcotest.bool "plot rendered" true (String.length plot > 0)

let () =
  Alcotest.run "partstm_integration"
    [
      ("dsa_vs_runtime", dsa_cases);
      ( "end_to_end",
        [
          Alcotest.test_case "mixed domains + tuner" `Slow test_mixed_domains_with_tuner;
          Alcotest.test_case "sim determinism" `Slow test_sim_end_to_end_determinism;
          Alcotest.test_case "backends agree" `Slow test_backends_agree_on_invariants;
          Alcotest.test_case "tuning preserves effects" `Slow test_tuning_preserves_effects;
          Alcotest.test_case "figure pipeline" `Quick test_figure_pipeline;
          Alcotest.test_case "driver step counts" `Quick test_driver_step_counts;
        ] );
    ]
