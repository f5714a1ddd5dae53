(* Bench harness entry point: regenerates every table and figure of the
   reproduction (see DESIGN.md §7 and EXPERIMENTS.md).

   Usage:
     dune exec bench/main.exe                 -- run everything
     dune exec bench/main.exe -- -e f2 -e t1  -- selected experiments
     dune exec bench/main.exe -- --quick      -- smaller sweeps
     dune exec bench/main.exe -- --csv results -- also write CSVs

   Exit status: 0 when every acceptance check passed or was skipped, 1 when
   any failed.  Every selected experiment still runs and writes its
   artifact first, so a failing run leaves its evidence behind. *)

let experiments =
  [
    ("t1", "partition inventory & per-partition characteristics", Exp_t1.run);
    ("f1", "intset microbenchmarks: throughput vs cores", Exp_f1.run);
    ("f2", "multi-structure application: per-partition vs global", Exp_f2.run);
    ("f3", "conflict-detection granularity", Exp_f3.run);
    ("f4", "dynamic phases: throughput over time", Exp_f4.run);
    ("f5", "applications: vacation / kmeans / genome", Exp_f5.run);
    ("t2", "partition-tracking overhead (bechamel)", Exp_t2.run);
    ("t3", "tuning decision traces", Exp_t3.run);
    ("a1", "ablation: contention managers", Exp_a1.run);
    ("a2", "ablation: cost-model sensitivity", Exp_a2.run);
    ("a3", "ablation: write-back vs write-through", Exp_a3.run);
    ("o1", "observability: tracing & profiling overhead", Exp_o1.run);
    ("obs2", "observability: always-on metrics-plane overhead", Exp_obs2.run);
    ("p1", "descriptor per-access cost vs set size", Exp_p1.run);
    ("d1", "domains hardware scaling: padded vs boxed (BENCH_D1.json)", Exp_d1.run);
    ("m1", "protocol comparison: sv / mv / ctl + tuner autonomy (BENCH_M1.json)", Exp_m1.run);
    ("y1", "YCSB phased traffic + social-feed app (BENCH_Y1.json)", Exp_y1.run);
  ]

let experiment_ids = List.map (fun (id, _, _) -> id) experiments

let run_selected selected quick csv_dir =
  let cfg = { Bench_config.quick; csv_dir } in
  let to_run =
    match selected with
    | [] -> experiments
    | ids ->
        List.filter_map
          (fun id ->
            match List.find_opt (fun (eid, _, _) -> eid = id) experiments with
            | Some experiment -> Some experiment
            | None ->
                Printf.eprintf "unknown experiment %S (known: %s)\n" id
                  (String.concat ", " experiment_ids);
                exit 2)
          ids
  in
  let started = Unix.gettimeofday () in
  List.iter
    (fun (id, description, run) ->
      Printf.printf "\n### [%s] %s\n%!" id description;
      let t0 = Unix.gettimeofday () in
      run cfg;
      Printf.printf "### [%s] done in %.1fs\n%!" id (Unix.gettimeofday () -. t0))
    to_run;
  Printf.printf "\nAll experiments completed in %.1fs.\n" (Unix.gettimeofday () -. started);
  if !Bench_config.failed then begin
    print_endline "Some acceptance checks FAILED (see the check lines above).";
    1
  end
  else 0

open Cmdliner

let selected_arg =
  let doc =
    "Run only the given experiment (repeatable). Known ids: " ^ String.concat " " experiment_ids ^ "."
  in
  Arg.(value & opt_all string [] & info [ "e"; "experiment" ] ~docv:"ID" ~doc)

let quick_arg =
  let doc = "Smaller sweeps (fewer cores, shorter runs); for smoke-testing the bench." in
  Arg.(value & flag & info [ "quick" ] ~doc)

let csv_arg =
  let doc = "Directory to write per-figure CSV files into." in
  Arg.(value & opt (some string) None & info [ "csv" ] ~docv:"DIR" ~doc)

let cmd =
  let doc = "Regenerate the tables and figures of the partitioned-STM reproduction" in
  Cmd.v
    (Cmd.info "partstm-bench" ~doc
       ~exits:(Cmd.Exit.info 1 ~doc:"an acceptance check failed." :: Cmd.Exit.defaults))
    Term.(const run_selected $ selected_arg $ quick_arg $ csv_arg)

let () = exit (Cmd.eval' cmd)
