(* Tests for the benchmark workloads and the harness driver.  Short runs
   under both backends, invariant checks after every run. *)

open Partstm_stm
open Partstm_core
open Partstm_harness
open Partstm_workloads

let check = Alcotest.check

let invisible g = Mode.make ~granularity_log2:g ()

(* A hand-built ctx that stops after [n] calls; lets unit tests drive a
   worker deterministically without the driver. *)
let ctx_for_ops ?(worker_id = 1) n =
  let remaining = ref n in
  {
    Driver.worker_id;
    rng = Partstm_util.Rng.make 77;
    should_stop =
      (fun () ->
        decr remaining;
        !remaining < 0);
    progress = (fun () -> 1.0 -. (float_of_int !remaining /. float_of_int n));
    attempt_tick = (fun () -> ());
  }

(* -- Strategy ---------------------------------------------------------------- *)

let test_strategy_mode_for () =
  let assignments = [ ("a", invisible 2) ] in
  let strategy = Strategy.Per_partition { assignments; fallback = invisible 9 } in
  check Alcotest.bool "assigned" true (Mode.equal (invisible 2) (Strategy.mode_for strategy "a"));
  check Alcotest.bool "fallback" true (Mode.equal (invisible 9) (Strategy.mode_for strategy "zzz"));
  check Alcotest.bool "fixed" true
    (Mode.equal (invisible 3) (Strategy.mode_for (Strategy.Fixed (invisible 3)) "any"));
  check Alcotest.bool "shared" true
    (Mode.equal (invisible 4) (Strategy.mode_for (Strategy.Shared (invisible 4)) "any"))

let test_strategy_flags () =
  check Alcotest.bool "tuned tunable" true (Strategy.tunable Strategy.tuned);
  check Alcotest.bool "fixed not tunable" false (Strategy.tunable Strategy.global_invisible);
  check Alcotest.bool "shared flag" true (Strategy.is_shared Strategy.shared_invisible);
  check Alcotest.bool "fixed not shared" false (Strategy.is_shared Strategy.global_invisible);
  check Alcotest.bool "labels distinct" true
    (Strategy.label Strategy.global_invisible <> Strategy.label Strategy.global_visible)

let test_alloc_shared_vs_partitioned () =
  let system = System.create () in
  let names = [ ("x", "sx"); ("y", "sy") ] in
  (match Alloc.partitions_for system ~strategy:Strategy.shared_invisible names with
  | [ a; b ] -> check Alcotest.bool "same shared partition" true (a == b)
  | _ -> Alcotest.fail "arity");
  let system2 = System.create () in
  (match Alloc.partitions_for system2 ~strategy:Strategy.global_invisible names with
  | [ a; b ] -> check Alcotest.bool "distinct partitions" false (a == b)
  | _ -> Alcotest.fail "arity");
  check Alcotest.int "registry shared" 1 (Registry.length (System.registry system));
  check Alcotest.int "registry partitioned" 2 (Registry.length (System.registry system2))

(* -- Intset ------------------------------------------------------------------- *)

let test_intset_setup_population () =
  List.iter
    (fun kind ->
      let system = System.create () in
      let config = { (Intset.default_config kind) with initial_size = 50; key_range = 200 } in
      let w = Intset.setup system ~strategy:Strategy.global_invisible config in
      check Alcotest.int
        (Intset.structure_to_string kind ^ " populated")
        50
        (List.length (Intset.elements w));
      check Alcotest.bool "valid" true (Intset.check w))
    [ Intset.Linked_list; Intset.Skip_list; Intset.Rb_tree; Intset.Hash_set ]

let test_intset_read_only_preserves () =
  let system = System.create () in
  let config =
    { (Intset.default_config Intset.Rb_tree) with update_percent = 0; initial_size = 30; key_range = 100 }
  in
  let w = Intset.setup system ~strategy:Strategy.global_invisible config in
  let before = Intset.elements w in
  let ops = Intset.worker w (ctx_for_ops 500) in
  check Alcotest.int "all ops ran" 500 ops;
  check Alcotest.(list int) "unchanged" before (Intset.elements w)

let test_intset_worker_reports_ops () =
  let system = System.create () in
  let w =
    Intset.setup system ~strategy:Strategy.global_invisible (Intset.default_config Intset.Linked_list)
  in
  check Alcotest.int "op count" 123 (Intset.worker w (ctx_for_ops 123));
  check Alcotest.bool "valid after updates" true (Intset.check w)

(* -- Mixed ---------------------------------------------------------------------- *)

let test_mixed_setup_and_run () =
  let system = System.create () in
  let w = Mixed.setup system ~strategy:Mixed.expert_strategy Mixed.default_config in
  check Alcotest.(list string) "partition names"
    [ "mixed-list"; "mixed-tree"; "mixed-set"; "mixed-stats" ]
    (List.map Partition.name (Mixed.partitions w));
  let ops = Mixed.worker w (ctx_for_ops 400) in
  check Alcotest.int "ops" 400 ops;
  check Alcotest.bool "invariants" true (Mixed.check w)

let test_mixed_shared_collapses_partitions () =
  let system = System.create () in
  let w = Mixed.setup system ~strategy:Strategy.shared_invisible Mixed.default_config in
  let distinct =
    List.sort_uniq compare (List.map Partition.name (Mixed.partitions w))
  in
  check Alcotest.(list string) "one shared region" [ Alloc.shared_heap_name ] distinct;
  ignore (Mixed.worker w (ctx_for_ops 200));
  check Alcotest.bool "invariants" true (Mixed.check w)

(* -- Granularity ------------------------------------------------------------------ *)

let test_granularity_increments_conserved () =
  let system = System.create () in
  let w = Granularity.setup system ~strategy:Granularity.expert_strategy Granularity.default_config in
  let ops = Granularity.worker w (ctx_for_ops 300) in
  check Alcotest.bool "conserved" true (Granularity.check w ~total_ops:ops)

(* -- Bank -------------------------------------------------------------------------- *)

let test_bank_sequential_invariant () =
  let system = System.create () in
  let w = Bank.setup system ~strategy:Strategy.global_invisible Bank.default_config in
  check Alcotest.bool "initial total" true (Bank.check w);
  ignore (Bank.worker w (ctx_for_ops 500));
  check Alcotest.bool "total preserved" true (Bank.check w)

let test_bank_concurrent_invariant () =
  let system = System.create () in
  let w = Bank.setup system ~strategy:Strategy.global_invisible Bank.default_config in
  let result =
    Driver.run ~mode:(Driver.Domains { seconds = 0.3 }) ~workers:4 (fun ctx -> Bank.worker w ctx)
  in
  check Alcotest.bool "some ops ran" true (result.Driver.total_ops > 0);
  check Alcotest.bool "total preserved concurrently" true (Bank.check w)

(* -- Vacation ------------------------------------------------------------------------ *)

let test_vacation_sequential () =
  let system = System.create () in
  let w = Vacation.setup system ~strategy:Strategy.global_invisible Vacation.default_config in
  check Alcotest.bool "fresh system valid" true (Vacation.check w);
  ignore (Vacation.worker w (ctx_for_ops 600));
  check Alcotest.bool "conservation holds" true (Vacation.check w)

let test_vacation_concurrent_sim () =
  let system = System.create ~max_workers:32 () in
  let w = Vacation.setup system ~strategy:Strategy.tuned Vacation.default_config in
  let tuner = System.tuner system in
  let result =
    Driver.run ~tuner ~mode:(Driver.default_sim ~cycles:400_000 ()) ~workers:8 (fun ctx ->
        Vacation.worker w ctx)
  in
  check Alcotest.bool "progress" true (result.Driver.total_ops > 100);
  check Alcotest.bool "conservation under concurrency + tuning" true (Vacation.check w)

(* -- Kmeans ---------------------------------------------------------------------------- *)

let test_kmeans_accumulators_consistent () =
  let system = System.create () in
  let w = Kmeans.setup system ~strategy:Strategy.global_invisible Kmeans.default_config in
  check Alcotest.bool "fresh" true (Kmeans.check w);
  ignore (Kmeans.worker w (ctx_for_ops 2000));
  check Alcotest.bool "accumulators match membership" true (Kmeans.check w)

let test_kmeans_concurrent_sim () =
  let system = System.create ~max_workers:32 () in
  let w = Kmeans.setup system ~strategy:Strategy.global_invisible Kmeans.default_config in
  let result =
    Driver.run ~mode:(Driver.default_sim ~cycles:300_000 ()) ~workers:6 (fun ctx -> Kmeans.worker w ctx)
  in
  check Alcotest.bool "progress" true (result.Driver.total_ops > 100);
  check Alcotest.bool "consistent" true (Kmeans.check w)

(* -- Genome ------------------------------------------------------------------------------ *)

let test_genome_subset_invariants () =
  let system = System.create () in
  let w = Genome.setup system ~strategy:Strategy.global_invisible Genome.default_config in
  ignore (Genome.worker w (ctx_for_ops 2000));
  check Alcotest.bool "subsets hold" true (Genome.check w)

(* -- Labyrinth ------------------------------------------------------------------------------- *)

let test_labyrinth_sequential () =
  let system = System.create () in
  let config = { Labyrinth.default_config with width = 16; height = 16; requests = 64 } in
  let w = Labyrinth.setup system ~strategy:Strategy.global_invisible config in
  ignore (Labyrinth.worker w (ctx_for_ops 100));
  check Alcotest.(list string) "no violations" [] (Labyrinth.check_verbose w);
  check Alcotest.bool "some paths routed" true (Labyrinth.routed_count w > 0)

let test_labyrinth_concurrent_sim () =
  let system = System.create ~max_workers:32 () in
  let w = Labyrinth.setup system ~strategy:Strategy.tuned Labyrinth.default_config in
  let tuner = System.tuner system in
  ignore
    (Driver.run ~tuner ~mode:(Driver.default_sim ~cycles:600_000 ()) ~workers:8 (fun ctx ->
         Labyrinth.worker w ctx));
  check Alcotest.(list string) "paths disjoint under concurrency" [] (Labyrinth.check_verbose w)

let test_labyrinth_partitions () =
  let system = System.create () in
  let w = Labyrinth.setup system ~strategy:Strategy.global_invisible Labyrinth.default_config in
  check Alcotest.(list string) "partition names" [ "lab-grid"; "lab-queue" ]
    (List.map Partition.name (Labyrinth.partitions w))

(* -- Phased -------------------------------------------------------------------------------- *)

let test_phased_phase_math () =
  let config = { Phased.default_config with phases = 4 } in
  check Alcotest.int "start" 0 (Phased.phase_of_progress config 0.0);
  check Alcotest.int "early" 0 (Phased.phase_of_progress config 0.24);
  check Alcotest.int "second" 1 (Phased.phase_of_progress config 0.26);
  check Alcotest.int "end clamps" 3 (Phased.phase_of_progress config 1.0);
  check Alcotest.int "read phase percent" config.Phased.read_phase_update_percent
    (Phased.update_percent_of_phase config 0);
  check Alcotest.int "write phase percent" config.Phased.write_phase_update_percent
    (Phased.update_percent_of_phase config 1)

let test_phased_time_series_accounts_ops () =
  let system = System.create () in
  let w = Phased.setup system ~strategy:Strategy.global_invisible Phased.default_config in
  let ops = Phased.worker w (ctx_for_ops 500) in
  let series = Phased.time_series w in
  check Alcotest.int "series sums to ops" ops (Array.fold_left ( + ) 0 series);
  check Alcotest.bool "tree valid" true (Phased.check w)

(* More workers than a default engine has worker ids: Phased, Ycsb and
   Feed size their per-worker arrays from the system's engine.  Simulated
   only, so the 65 workers are fibers, not domains. *)
let test_more_than_64_workers () =
  let workers = 65 and cycles = 40_000 in
  let p =
    Workload.prepare ~workers ~strategy:Strategy.tuned (fun system ~strategy ->
        Phased.setup system ~strategy Phased.default_config)
  in
  let result =
    Driver.run ?tuner:p.Workload.tuner ~mode:(Driver.default_sim ~cycles ()) ~workers (fun ctx ->
        Phased.worker p.Workload.state ctx)
  in
  check Alcotest.bool "phased ran" true (result.Driver.total_ops > 0);
  check Alcotest.bool "phased tree valid" true (Phased.check p.Workload.state);
  let ycsb = Ycsb.run ~backend:(`Sim cycles) ~workers ~seed:1 Ycsb.quick_config in
  check Alcotest.bool "ycsb verified" true ycsb.Ycsb.r_verified;
  let feed = Feed.run ~backend:(`Sim cycles) ~workers ~seed:1 Feed.quick_config in
  check Alcotest.bool "feed verified" true feed.Feed.r_verified

(* A celebrity post writes hundreds of timeline slots while two simulated
   workers rarely collide: the tuner coarsens feed-timelines on the fan-out
   rule instead of leaving it at the default g10. *)
let test_feed_fan_out_coarsens () =
  let report =
    Feed.run ~backend:(`Sim (Feed.bench_sim_cycles ~quick:true)) ~workers:2 ~seed:7 Feed.quick_config
  in
  check Alcotest.bool "feed verified" true report.Feed.r_verified;
  let timelines =
    List.find (fun o -> o.Feed.po_name = "feed-timelines") report.Feed.r_outcomes
  in
  (match Mode.of_string timelines.Feed.po_final with
  | Ok m ->
      if m.Mode.granularity_log2 >= 10 then
        Alcotest.failf "feed-timelines ended at %s, not coarser than g10" timelines.Feed.po_final
  | Error e -> Alcotest.failf "final mode %S: %s" timelines.Feed.po_final e);
  let names_fan_out e =
    e.Feed.ex_partition = "feed-timelines"
    && List.exists
         (fun m ->
           let needle = "fan-out" in
           let n = String.length needle in
           let rec at i = i + n <= String.length m && (String.sub m i n = needle || at (i + 1)) in
           at 0)
         e.Feed.ex_triggered
  in
  check Alcotest.bool "an explain entry names the fan-out rule" true
    (List.exists names_fan_out report.Feed.r_explain)

(* -- Driver ---------------------------------------------------------------------------------- *)

let test_driver_sim_deterministic () =
  let run () =
    let system = System.create ~max_workers:16 () in
    let w =
      Intset.setup system ~strategy:Strategy.global_invisible (Intset.default_config Intset.Linked_list)
    in
    let result =
      Driver.run ~mode:(Driver.default_sim ~cycles:200_000 ()) ~workers:4 (fun ctx ->
          Intset.worker w ctx)
    in
    result.Driver.total_ops
  in
  check Alcotest.int "identical totals" (run ()) (run ())

let test_driver_domains_runs () =
  let system = System.create ~max_workers:8 () in
  let w =
    Intset.setup system ~strategy:Strategy.global_invisible (Intset.default_config Intset.Rb_tree)
  in
  let result =
    Driver.run ~mode:(Driver.Domains { seconds = 0.2 }) ~workers:2 (fun ctx -> Intset.worker w ctx)
  in
  check Alcotest.bool "elapsed plausible" true (result.Driver.elapsed >= 0.2);
  check Alcotest.bool "ops happened" true (result.Driver.total_ops > 0);
  check Alcotest.int "per-worker sums" result.Driver.total_ops
    (Array.fold_left ( + ) 0 result.Driver.per_worker_ops);
  check Alcotest.bool "valid" true (Intset.check w)

let test_driver_runs_tuner () =
  let system = System.create ~max_workers:16 () in
  let w =
    Intset.setup system ~strategy:Strategy.tuned
      { (Intset.default_config Intset.Linked_list) with update_percent = 80 }
  in
  let tuner = System.tuner system in
  ignore
    (Driver.run ~tuner ~tuner_steps:10 ~mode:(Driver.default_sim ~cycles:500_000 ()) ~workers:4
       (fun ctx -> Intset.worker w ctx));
  check Alcotest.bool "tuner ticked" true (Tuner.ticks tuner >= 5)

let test_driver_rejects_zero_workers () =
  Alcotest.check_raises "workers" (Invalid_argument "Driver.run: workers") (fun () ->
      ignore (Driver.run ~mode:(Driver.default_sim ()) ~workers:0 (fun _ -> 0)))

(* -- Catalogue ------------------------------------------------------------------ *)

(* Every catalogue entry sets up, runs and passes its own check under every
   strategy the CLI accepts, through the shared run recipe. *)
let test_catalogue_runs () =
  check Alcotest.int "entries" 12 (List.length Workload.all);
  check Alcotest.int "strategies" 5 (List.length Workload.strategies);
  List.iter
    (fun (Workload.Workload w) ->
      List.iter
        (fun (strategy_name, strategy) ->
          let workers = 2 in
          let p = Workload.prepare ~workers ~strategy w.setup in
          let result =
            Driver.run ?tuner:p.Workload.tuner ~mode:(Driver.default_sim ~cycles:100_000 ())
              ~workers (w.worker p.Workload.state)
          in
          let what = Printf.sprintf "%s under %s" w.name strategy_name in
          check Alcotest.bool (what ^ " ran") true (result.Driver.total_ops > 0);
          check Alcotest.bool (what ^ " checked") true
            (w.check p.Workload.state ~total_ops:result.Driver.total_ops))
        Workload.strategies)
    Workload.all

let test_catalogue_names () =
  let names = List.map Workload.name Workload.all in
  check Alcotest.int "names unique" (List.length names)
    (List.length (List.sort_uniq compare names));
  List.iter
    (fun name -> check Alcotest.string "find by name" name (Workload.name (Workload.get name)))
    names;
  check Alcotest.bool "unknown name" true (Workload.find "no-such-workload" = None)

(* The lines of one section of [partstm list]: two-space-indented entries
   after the [header] line, first word only. *)
let list_section lines header =
  let rec after = function [] -> [] | l :: rest -> if l = header then rest else after rest in
  let rec entries = function
    | l :: rest when String.length l > 2 && String.sub l 0 2 = "  " ->
        List.hd (String.split_on_char ' ' (String.trim l)) :: entries rest
    | _ -> []
  in
  entries (after lines)

let test_catalogue_listed () =
  let cli = Filename.concat (Filename.dirname Sys.executable_name) "../bin/partstm_cli.exe" in
  let ic = Unix.open_process_args_in cli [| cli; "list" |] in
  let lines = In_channel.input_all ic |> String.split_on_char '\n' in
  check Alcotest.bool "list exits 0" true (Unix.close_process_in ic = Unix.WEXITED 0);
  check
    Alcotest.(list string)
    "workloads listed" (List.map Workload.name Workload.all) (list_section lines "workloads:");
  check
    Alcotest.(list string)
    "strategies listed" (List.map fst Workload.strategies) (list_section lines "strategies:")

let () =
  Alcotest.run "partstm_workloads"
    [
      ( "strategy",
        [
          Alcotest.test_case "mode_for" `Quick test_strategy_mode_for;
          Alcotest.test_case "flags" `Quick test_strategy_flags;
          Alcotest.test_case "alloc shared vs partitioned" `Quick test_alloc_shared_vs_partitioned;
        ] );
      ( "intset",
        [
          Alcotest.test_case "population" `Quick test_intset_setup_population;
          Alcotest.test_case "read-only preserves" `Quick test_intset_read_only_preserves;
          Alcotest.test_case "worker op count" `Quick test_intset_worker_reports_ops;
        ] );
      ( "mixed",
        [
          Alcotest.test_case "setup and run" `Quick test_mixed_setup_and_run;
          Alcotest.test_case "shared collapses" `Quick test_mixed_shared_collapses_partitions;
        ] );
      ("granularity", [ Alcotest.test_case "increments conserved" `Quick test_granularity_increments_conserved ]);
      ( "bank",
        [
          Alcotest.test_case "sequential invariant" `Quick test_bank_sequential_invariant;
          Alcotest.test_case "concurrent invariant" `Slow test_bank_concurrent_invariant;
        ] );
      ( "vacation",
        [
          Alcotest.test_case "sequential conservation" `Quick test_vacation_sequential;
          Alcotest.test_case "concurrent sim + tuner" `Slow test_vacation_concurrent_sim;
        ] );
      ( "kmeans",
        [
          Alcotest.test_case "accumulators consistent" `Quick test_kmeans_accumulators_consistent;
          Alcotest.test_case "concurrent sim" `Slow test_kmeans_concurrent_sim;
        ] );
      ("genome", [ Alcotest.test_case "subset invariants" `Quick test_genome_subset_invariants ]);
      ( "labyrinth",
        [
          Alcotest.test_case "sequential routing" `Quick test_labyrinth_sequential;
          Alcotest.test_case "concurrent sim + tuner" `Slow test_labyrinth_concurrent_sim;
          Alcotest.test_case "partitions" `Quick test_labyrinth_partitions;
        ] );
      ( "phased",
        [
          Alcotest.test_case "phase math" `Quick test_phased_phase_math;
          Alcotest.test_case "time series" `Quick test_phased_time_series_accounts_ops;
          Alcotest.test_case "65 simulated workers" `Quick test_more_than_64_workers;
        ] );
      ("feed", [ Alcotest.test_case "fan-out coarsens timelines" `Quick test_feed_fan_out_coarsens ]);
      ( "catalogue",
        [
          Alcotest.test_case "every entry under every strategy" `Quick test_catalogue_runs;
          Alcotest.test_case "names unique" `Quick test_catalogue_names;
          Alcotest.test_case "partstm list prints it" `Quick test_catalogue_listed;
        ] );
      ( "driver",
        [
          Alcotest.test_case "sim deterministic" `Quick test_driver_sim_deterministic;
          Alcotest.test_case "domains runs" `Slow test_driver_domains_runs;
          Alcotest.test_case "runs tuner" `Quick test_driver_runs_tuner;
          Alcotest.test_case "rejects zero workers" `Quick test_driver_rejects_zero_workers;
        ] );
    ]
