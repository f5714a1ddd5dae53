(* partstm command-line interface.

   Subcommands:
     dsa                     print the compile-time partition inventory
     run <workload> ...      run one workload and print throughput + stats
     stats <workload> ...    run with telemetry and print per-partition summaries
     trace <workload> ...    run with telemetry and print the per-period trace
     profile <workload> ...  run under the span tracer: spans, hot orecs, latencies
     metrics <workload> ...  run with the metrics plane; OpenMetrics/affinity/SLO export
     top <workload> ...      live-refreshing dashboard over a run (htop for partitions)
     check [<scenario>] ...  systematic schedule exploration + opacity oracle
     list                    list workloads, strategies and check scenarios

   Examples:
     dune exec bin/partstm_cli.exe -- dsa
     dune exec bin/partstm_cli.exe -- run mixed --workers 8 --strategy tuned
     dune exec bin/partstm_cli.exe -- stats intset-ll --backend domains --seconds 1
     dune exec bin/partstm_cli.exe -- trace phased --telemetry-out results
     dune exec bin/partstm_cli.exe -- profile bank --backend sim --trace-out results
     dune exec bin/partstm_cli.exe -- metrics bank --out bank.om --artifacts results
     dune exec bin/partstm_cli.exe -- top mixed --backend domains --seconds 5 --port 0
     dune exec bin/partstm_cli.exe -- check --budget 500 --kills 2
     dune exec bin/partstm_cli.exe -- check --bug skip-commit-validation *)

open Partstm_stm
open Partstm_core
open Partstm_harness
open Partstm_workloads
module Check = Partstm_check
open Cmdliner

(* -- Shared run machinery ----------------------------------------------------- *)

type run_spec = {
  workload_name : string;
  strategy_name : string;
  workers : int;
  backend : string;
  seconds : float;
  cycles : int;
  seed : int;
  cm : Cm.t option;  (* None = engine default *)
  protocols : (string option * Protocol.t) list;
      (* --protocol overrides, applied after workload setup: [(Some name, p)]
         forces partition [name]; [(None, p)] forces every partition. *)
  telemetry_out : string option;
}

(* Force concurrency-control protocols onto freshly set-up partitions.  The
   non-single-version protocols own their read path and buffering, so the
   rest of the mode is normalised exactly as [Tuning_policy.decide] does —
   [Mode.validate] rejects any other composition. *)
let force_protocols system overrides =
  let registry = System.registry system in
  let set protocol p =
    let mode = Partition.mode p in
    let mode =
      match protocol with
      | Protocol.Single_version -> { mode with Mode.protocol }
      | Protocol.Multi_version _ | Protocol.Commit_time_lock ->
          { mode with Mode.protocol; visibility = Mode.Invisible; update = Mode.Write_back }
    in
    Partition.set_mode p mode
  in
  let unknown =
    List.filter_map
      (fun (target, protocol) ->
        match target with
        | None ->
            List.iter (set protocol) (Registry.partitions registry);
            None
        | Some name -> (
            match Registry.find_by_name registry name with
            | Some p ->
                set protocol p;
                None
            | None -> Some name))
      overrides
  in
  match unknown with
  | [] -> Ok ()
  | names ->
      Printf.eprintf "--protocol: unknown partition(s) %s (known: %s)\n"
        (String.concat ", " (List.map (Printf.sprintf "%S") names))
        (String.concat ", "
           (List.map (fun p -> Partition.name p) (Registry.partitions registry)));
      Error 2

type run_outcome = {
  ro_result : Driver.result;
  ro_system : System.t;
  ro_tuner : Tuner.t option;
  ro_plane : Metrics_plane.t option;  (* holds the telemetry series *)
  ro_verified : bool;
  ro_strategy : Strategy.t;
  ro_mode : Driver.mode;
}

(* A workload resolved and set up but not yet run — the metrics/top
   subcommands need the registry (to build a metrics plane) before the run
   starts, so setup and execution are separate steps. *)
type prepared = {
  pr_system : System.t;
  pr_worker : Driver.ctx -> int;
  pr_verify : total_ops:int -> bool;
  pr_strategy : Strategy.t;
  pr_mode : Driver.mode;
  pr_tuner : Tuner.t option;
}

let prepare spec =
  match
    (Workload.find spec.workload_name, List.assoc_opt spec.strategy_name Workload.strategies)
  with
  | None, _ ->
      Printf.eprintf "unknown workload %S (try `partstm list`)\n" spec.workload_name;
      Error 2
  | _, None ->
      Printf.eprintf "unknown strategy %S (try `partstm list`)\n" spec.strategy_name;
      Error 2
  | Some (Workload.Workload { setup; worker; check; _ }), Some strategy -> (
      match spec.backend with
      | ("sim" | "domains") as backend -> (
          let mode =
            if backend = "sim" then Driver.default_sim ~cycles:spec.cycles ()
            else Driver.Domains { seconds = spec.seconds }
          in
          (* The --protocol overrides are part of the set-up: the stats
             reset that follows must not count them. *)
          let p =
            Workload.prepare ?contention_manager:spec.cm ~workers:spec.workers ~strategy
              (fun system ~strategy ->
                let state = setup system ~strategy in
                (state, force_protocols system spec.protocols))
          in
          match p.Workload.state with
          | _, Error code -> Error code
          | state, Ok () ->
              Ok
                {
                  pr_system = p.Workload.system;
                  pr_worker = worker state;
                  pr_verify = check state;
                  pr_strategy = strategy;
                  pr_mode = mode;
                  pr_tuner = p.Workload.tuner;
                })
      | other ->
          Printf.eprintf "unknown backend %S (sim|domains)\n" other;
          Error 2)

(* Run a prepared workload; [tracer]/[metrics] are attached to the
   system's engine for the duration of the run.  The telemetry series
   comes from [metrics] when given; otherwise [with_telemetry] (the
   stats/trace subcommands) or --telemetry-out runs an unattached plane,
   sampled at the tuner's default cadence. *)
let run_prepared ?tracer ?metrics ?(metrics_steps = 0) spec p ~with_telemetry =
  let plane, metrics_steps =
    match metrics with
    | None when with_telemetry || Option.is_some spec.telemetry_out ->
        (Some (Metrics_plane.create (System.registry p.pr_system)), 40)
    | _ -> (metrics, metrics_steps)
  in
  Option.iter (fun tracer -> Partstm_obs.Tracer.attach tracer (System.engine p.pr_system)) tracer;
  Option.iter Metrics_plane.attach metrics;
  let result =
    Fun.protect
      ~finally:(fun () ->
        Option.iter Partstm_obs.Tracer.detach tracer;
        Option.iter Metrics_plane.detach metrics)
      (fun () ->
        Driver.run ?tuner:p.pr_tuner ?tracer ?metrics:plane ~metrics_steps ~seed:spec.seed
          ~mode:p.pr_mode ~workers:spec.workers p.pr_worker)
  in
  Option.iter
    (fun dir ->
      let csv, json =
        Telemetry.save ~dir ~basename:(spec.workload_name ^ "-telemetry") ~tuner:p.pr_tuner
          (Option.get plane)
      in
      Printf.printf "telemetry  : %s, %s\n" csv json)
    spec.telemetry_out;
  {
    ro_result = result;
    ro_system = p.pr_system;
    ro_tuner = p.pr_tuner;
    ro_plane = plane;
    ro_verified = p.pr_verify ~total_ops:result.Driver.total_ops;
    ro_strategy = p.pr_strategy;
    ro_mode = p.pr_mode;
  }

let execute ?tracer spec ~with_telemetry =
  match prepare spec with
  | Error code -> Error code
  | Ok p -> Ok (run_prepared ?tracer spec p ~with_telemetry)

let print_run_header spec outcome =
  Printf.printf "workload   : %s\n" spec.workload_name;
  Printf.printf "strategy   : %s\n" (Strategy.label outcome.ro_strategy);
  Printf.printf "backend    : %s\n" (Driver.mode_to_string outcome.ro_mode);
  Printf.printf "workers    : %d\n" spec.workers;
  Printf.printf "operations : %d\n" outcome.ro_result.Driver.total_ops;
  Printf.printf "throughput : %.1f %s\n" outcome.ro_result.Driver.throughput
    (match spec.backend with "sim" -> "txn/Mcycle" | _ -> "txn/s");
  Printf.printf "verified   : %b\n\n" outcome.ro_verified

let print_decisions outcome =
  match outcome.ro_tuner with
  | Some tuner when Tuner.switches tuner > 0 ->
      print_endline "\ntuner decisions:";
      List.iter (fun ev -> Format.printf "  %a@." Tuner.pp_event ev) (Tuner.trace tuner)
  | _ -> ()

(* -- Subcommand implementations ---------------------------------------------- *)

let cmd_dsa () =
  Partstm_util.Table.print (Partstm_dsa.Report.inventory_table ());
  if Partstm_dsa.Report.check_all () then begin
    print_endline "\nall mirrors match their expected partitioning";
    0
  end
  else begin
    print_endline "\nMISMATCH between analysis and expected partitioning";
    1
  end

let cmd_list () =
  print_endline "workloads:";
  List.iter (fun w -> Printf.printf "  %s\n" (Workload.name w)) Workload.all;
  print_endline "strategies:";
  List.iter (fun (name, s) -> Printf.printf "  %-10s %s\n" name (Strategy.label s))
    Workload.strategies;
  print_endline "check scenarios:";
  List.iter
    (fun s -> Printf.printf "  %-18s %d fibers\n" s.Check.Scenario.name s.Check.Scenario.fibers)
    Check.Scenario.all;
  print_endline "protocols (run --protocol [PARTITION=]PROTO):";
  Printf.printf "  %-10s single-version timestamps (the default)\n" "sv";
  Printf.printf "  %-10s multi-version, history depth K (e.g. mv8)\n" "mv<K>";
  Printf.printf "  %-10s commit-time locking (NOrec-style sequence lock)\n" "ctl";
  print_endline "seeded bugs (check --bug):";
  List.iter (fun b -> Printf.printf "  %s\n" (Bug.to_string b)) Bug.all;
  print_endline
    "(any workload/strategy above works with run, stats, trace, profile, metrics and top)";
  0

(* -- check: systematic concurrency testing ------------------------------------ *)

type check_spec = {
  ck_scenario : string option;
  ck_strategy : string;
  ck_budget : int;
  ck_seed : int;
  ck_kills : int;
  ck_depth : int;
  ck_preemptions : int;
  ck_bug : string option;
}

let check_strategy spec =
  match spec.ck_strategy with
  | "random" -> Ok Check.Explore.Random_walk
  | "pct" -> Ok (Check.Explore.Pct { depth = spec.ck_depth })
  | "dfs" -> Ok (Check.Explore.Dfs { max_preemptions = spec.ck_preemptions })
  | other ->
      Printf.eprintf "unknown exploration strategy %S (random|pct|dfs)\n" other;
      Error 2

(* Explore one scenario; returns true when the run matched expectations:
   nothing found on the correct engine, or — under [--bug] — the seeded
   bug detected within budget. *)
let check_one ~strategy ~spec ~expect_failure scenario =
  Printf.printf "%-18s %-12s budget=%d kills=%d ... %!" scenario.Check.Scenario.name
    (Check.Explore.strategy_name strategy)
    spec.ck_budget spec.ck_kills;
  let outcome =
    Check.Explore.run ~seed:spec.ck_seed ~budget:spec.ck_budget ~kills:spec.ck_kills strategy
      scenario
  in
  match (outcome, expect_failure) with
  | Check.Explore.Passed { schedules; abandoned; committed; aborted }, false ->
      Printf.printf "ok (%d schedules, %d abandoned, %d commits, %d aborts)\n" schedules abandoned
        committed aborted;
      true
  | Check.Explore.Passed { schedules; _ }, true ->
      Printf.printf "MISSED the seeded bug after %d schedules\n" schedules;
      false
  | Check.Explore.Failed f, expected ->
      Printf.printf "%s after %d schedules\n"
        (if expected then "detected" else "FAILED")
        f.Check.Explore.f_schedules_run;
      Format.printf "%a@." Check.Explore.pp_failure f;
      expected

let cmd_check spec =
  match check_strategy spec with
  | Error code -> code
  | Ok strategy -> (
      let scenario_of_name name =
        match Check.Scenario.find name with
        | Some s -> Ok s
        | None ->
            Printf.eprintf "unknown scenario %S (try `partstm list`)\n" name;
            Error 2
      in
      match spec.ck_bug with
      | Some bug_name -> (
          match Bug.of_string bug_name with
          | None ->
              Printf.eprintf "unknown bug %S (try `partstm list`)\n" bug_name;
              2
          | Some bug -> (
              let scenario =
                match spec.ck_scenario with
                | None -> Ok (Check.Scenario.for_bug bug)
                | Some name -> scenario_of_name name
              in
              match scenario with
              | Error code -> code
              | Ok scenario ->
                  Printf.printf "injecting %s; success = detection\n" (Bug.to_string bug);
                  let caught =
                    Bug.with_bug bug (fun () ->
                        check_one ~strategy ~spec ~expect_failure:true scenario)
                  in
                  if caught then 0 else 1))
      | None -> (
          let scenarios =
            match spec.ck_scenario with
            | None -> Ok Check.Scenario.all
            | Some name -> Result.map (fun s -> [ s ]) (scenario_of_name name)
          in
          match scenarios with
          | Error code -> code
          | Ok scenarios ->
              let ok =
                List.fold_left
                  (fun acc s -> check_one ~strategy ~spec ~expect_failure:false s && acc)
                  true scenarios
              in
              if ok then 0 else 1))

let cmd_run spec =
  match execute spec ~with_telemetry:false with
  | Error code -> code
  | Ok outcome ->
      print_run_header spec outcome;
      let table =
        Partstm_util.Table.create ~title:"per-partition statistics"
          ~header:[ "partition"; "tvars"; "access%"; "update-ratio"; "abort-rate"; "switches"; "mode" ]
      in
      List.iter
        (fun row ->
          Partstm_util.Table.add_row table
            [
              row.Registry.row_name;
              string_of_int row.Registry.row_tvars;
              Printf.sprintf "%.1f" (100.0 *. row.Registry.row_access_share);
              Printf.sprintf "%.3f" (Region_stats.update_txn_ratio row.Registry.row_stats);
              Printf.sprintf "%.3f" (Region_stats.abort_rate row.Registry.row_stats);
              string_of_int row.Registry.row_stats.Region_stats.s_mode_switches;
              Fmt.str "%a" Mode.pp row.Registry.row_mode;
            ])
        (Registry.report (System.registry outcome.ro_system));
      Partstm_util.Table.print table;
      print_decisions outcome;
      if outcome.ro_verified then 0 else 1

let cmd_stats spec =
  match execute spec ~with_telemetry:true with
  | Error code -> code
  | Ok outcome ->
      print_run_header spec outcome;
      let plane = Option.get outcome.ro_plane in
      Partstm_util.Table.print (Telemetry.summary_table plane);
      print_newline ();
      Figure.print (Telemetry.to_figure ~metric:"commits" plane);
      print_decisions outcome;
      if outcome.ro_verified then 0 else 1

let cmd_trace spec =
  match execute spec ~with_telemetry:true with
  | Error code -> code
  | Ok outcome ->
      print_run_header spec outcome;
      Partstm_util.Table.print (Telemetry.trace_table (Option.get outcome.ro_plane));
      print_decisions outcome;
      if outcome.ro_verified then 0 else 1

(* -- profile: span tracer with hot-orec and latency aggregates ------------------- *)

type profile_spec = {
  pf_run : run_spec;
  pf_sampling : int;
  pf_top_k : int;
  pf_trace_out : string option;
}

(* Fail fast, before the run, when the output directory cannot take a
   file — a profile run is expensive and its artifacts are the point. *)
let ensure_writable_dir dir =
  try
    let probe = Filename.concat dir ".partstm-write-probe" in
    Partstm_util.Fs.write_file probe "";
    Sys.remove probe;
    Ok ()
  with Sys_error msg -> Error msg

let cmd_profile pspec =
  let spec = pspec.pf_run in
  match Option.map ensure_writable_dir pspec.pf_trace_out with
  | Some (Error msg) ->
      Printf.eprintf "profile: --trace-out %S is not writable: %s\n"
        (Option.value ~default:"" pspec.pf_trace_out)
        msg;
      2
  | _ -> (
      let tracer = Partstm_obs.Tracer.create ~sample_every:pspec.pf_sampling () in
      match execute ~tracer spec ~with_telemetry:false with
      | Error code -> code
      | Ok outcome ->
          print_run_header spec outcome;
          let name_of_region = Metrics_plane.name_of_region (System.registry outcome.ro_system) in
          let module Report = Partstm_obs.Report in
          Partstm_util.Table.print (Report.span_summary tracer);
          print_newline ();
          Partstm_util.Table.print
            (Report.hot_slots_table ~top_k:pspec.pf_top_k ~name_of_region tracer);
          print_newline ();
          Partstm_util.Table.print (Report.latency_table ~name_of_region tracer);
          print_newline ();
          Printf.printf "contention heatmap (lock-table slot space, %s units):\n"
            (match spec.backend with "sim" -> "cycle" | _ -> "ns");
          print_string (Report.heatmap ~name_of_region tracer);
          Option.iter
            (fun dir ->
              let ts_per_us = if spec.backend = "sim" then 1 else 1000 in
              let path name = Filename.concat dir (spec.workload_name ^ name) in
              let trace_path = path "-trace.json" in
              Partstm_util.Fs.write_file trace_path
                (Partstm_obs.Chrome.to_string ~name_of_region ~ts_per_us tracer ^ "\n");
              let folded_path = path "-folded.txt" in
              Partstm_util.Fs.write_file folded_path
                (Partstm_obs.Chrome.folded_to_string ~name_of_region tracer);
              let contention_path = path "-contention.json" in
              Partstm_util.Fs.write_file contention_path
                (Partstm_util.Json.to_string
                   (Partstm_obs.Tracer.to_json ~name_of_region tracer)
                ^ "\n");
              Printf.printf "\ntrace      : %s (load in Perfetto / chrome://tracing)\n"
                trace_path;
              Printf.printf "folded     : %s\n" folded_path;
              Printf.printf "contention : %s\n" contention_path)
            pspec.pf_trace_out;
          print_decisions outcome;
          if outcome.ro_verified then 0 else 1)

(* -- metrics / top: the always-on metrics plane -------------------------------- *)

(* SLO thresholds are in the backend's latency units: virtual cycles on sim,
   nanoseconds on domains — hence per-backend defaults.  An objective's
   name labels its exported series, so a name may appear only once. *)
let parse_slos backend specs =
  let specs =
    match specs with
    | [] -> [ (if backend = "sim" then "commit_p99<4096" else "commit_p99<1000000") ]
    | specs -> specs
  in
  let module Slo = Partstm_obs.Slo in
  List.fold_left
    (fun acc s ->
      match (acc, Slo.parse s) with
      | Error _, _ -> acc
      | Ok _, Error msg -> Error (Printf.sprintf "%S: %s" s msg)
      | Ok parsed, Ok spec
        when List.exists (fun (p : Slo.spec) -> p.Slo.sp_name = spec.Slo.sp_name) parsed ->
          Error (Printf.sprintf "%S: objective %s given twice" s spec.Slo.sp_name)
      | Ok parsed, Ok spec -> Ok (parsed @ [ spec ]))
    (Ok []) specs

type metrics_spec = {
  mt_run : run_spec;
  mt_out : string option;
  mt_artifacts : string option;
  mt_slos : string list;
  mt_steps : int;
}

let cmd_metrics mspec =
  let spec = mspec.mt_run in
  match parse_slos spec.backend mspec.mt_slos with
  | Error msg ->
      Printf.eprintf "metrics: bad --slo %s\n" msg;
      2
  | Ok slos -> (
      match prepare spec with
      | Error code -> code
      | Ok p ->
          let plane = Metrics_plane.create ~slos (System.registry p.pr_system) in
          let outcome =
            run_prepared ~metrics:plane ~metrics_steps:mspec.mt_steps spec p
              ~with_telemetry:false
          in
          print_run_header spec outcome;
          let name_of_region = Metrics_plane.name_of_region (System.registry outcome.ro_system) in
          let module Report = Partstm_obs.Report in
          Partstm_util.Table.print (Report.slo_table (Metrics_plane.slo plane));
          print_newline ();
          Partstm_util.Table.print
            (Report.affinity_table ~name_of_region (Metrics_plane.affinity plane));
          let text = Metrics_plane.openmetrics plane in
          (* The exporter validates its own output: what we write is what a
             Prometheus scraper must be able to parse. *)
          let export_ok =
            match Partstm_obs.Openmetrics.parse text with
            | Ok families -> Ok (List.length families)
            | Error msg -> Error msg
          in
          (match (export_ok, mspec.mt_out) with
          | Error msg, _ ->
              Printf.eprintf "metrics: exporter produced invalid OpenMetrics text: %s\n" msg
          | Ok families, Some path ->
              Partstm_util.Fs.write_file path text;
              Printf.printf "\nmetrics    : %s (%d families, valid OpenMetrics)\n" path families
          | Ok _, None ->
              print_newline ();
              print_string text);
          Option.iter
            (fun dir ->
              List.iter
                (Printf.printf "artifact   : %s\n")
                (Metrics_plane.save ~dir ~basename:(spec.workload_name ^ "-metrics") plane))
            mspec.mt_artifacts;
          if not (Partstm_obs.Slo.ok (Metrics_plane.slo plane)) then
            print_endline "\nSLO: at least one objective VIOLATED in its last window";
          if outcome.ro_verified && Result.is_ok export_ok then 0 else 1)

type top_spec = {
  tp_run : run_spec;
  tp_refresh : float;
  tp_port : int option;
  tp_slos : string list;
  tp_steps : int;
}

let top_frame ~spec ~plane ~tuner ~tracer ~name_of_region ~system ~port ~rates ~elapsed =
  let module Report = Partstm_obs.Report in
  let buf = Buffer.create 4096 in
  Buffer.add_string buf
    (Printf.sprintf "partstm top — %s  strategy=%s  backend=%s  workers=%d  elapsed=%.1fs%s\n\n"
       spec.workload_name spec.strategy_name spec.backend spec.workers elapsed
       (match port with
       | Some port -> Printf.sprintf "  scrape=127.0.0.1:%d/metrics" port
       | None -> ""));
  let table =
    Partstm_util.Table.create ~title:"partitions"
      ~header:[ "partition"; "tvars"; "commits"; "abort%"; "commits/s"; "switches"; "mode" ]
  in
  List.iter
    (fun row ->
      let stats = row.Registry.row_stats in
      Partstm_util.Table.add_row table
        [
          row.Registry.row_name;
          string_of_int row.Registry.row_tvars;
          string_of_int stats.Region_stats.s_commits;
          Printf.sprintf "%.1f" (100.0 *. Region_stats.abort_rate stats);
          (match List.assoc_opt row.Registry.row_name rates with
          | Some rate -> Printf.sprintf "%.0f" rate
          | None -> "-");
          string_of_int stats.Region_stats.s_mode_switches;
          Fmt.str "%a" Mode.pp row.Registry.row_mode;
        ])
    (Registry.report (System.registry system));
  Buffer.add_string buf (Partstm_util.Table.render table);
  Buffer.add_string buf "\n\n";
  Buffer.add_string buf (Partstm_util.Table.render (Report.slo_table (Metrics_plane.slo plane)));
  Buffer.add_string buf "\n\n";
  Buffer.add_string buf
    (Partstm_util.Table.render
       (Report.affinity_table ~name_of_region (Metrics_plane.affinity plane)));
  Buffer.add_string buf "\n\n";
  Buffer.add_string buf
    (Partstm_util.Table.render (Report.hot_slots_table ~top_k:5 ~name_of_region tracer));
  (match tuner with
  | None -> ()
  | Some tuner -> (
      match Tuner.last_decisions tuner with
      | [] -> ()
      | lasts ->
          Buffer.add_string buf "\n\nlast tuner decisions (why):\n";
          List.iter
            (fun (ld : Tuner.last) ->
              Buffer.add_string buf
                (Printf.sprintf "  %-16s tick %-4d %s\n" ld.Tuner.ld_partition ld.Tuner.ld_tick
                   (match ld.Tuner.ld_decision with
                   | Tuning_policy.Keep -> "keep"
                   | Tuning_policy.Switch mode -> Fmt.str "switch -> %a" Mode.pp mode));
              let why = ld.Tuner.ld_why in
              List.iteri
                (fun i reason ->
                  if i < 2 then Buffer.add_string buf (Printf.sprintf "    + %s\n" reason))
                why.Tuning_policy.w_triggered;
              if why.Tuning_policy.w_triggered = [] then
                match why.Tuning_policy.w_rejected with
                | reason :: _ -> Buffer.add_string buf (Printf.sprintf "    - %s\n" reason)
                | [] -> ())
            lasts));
  Buffer.contents buf

let cmd_top tspec =
  let spec = tspec.tp_run in
  match parse_slos spec.backend tspec.tp_slos with
  | Error msg ->
      Printf.eprintf "top: bad --slo %s\n" msg;
      2
  | Ok slos -> (
      match prepare spec with
      | Error code -> code
      | Ok p ->
          let plane = Metrics_plane.create ~slos (System.registry p.pr_system) in
          let port = Option.map (fun port -> Metrics_plane.serve ~port plane) tspec.tp_port in
          (* The dashboard renders no spans, only the tracer's exact hot-slot
             aggregates, so keep just one span in 64. *)
          let tracer = Partstm_obs.Tracer.create ~sample_every:64 () in
          let finished = Atomic.make false in
          (* The run proceeds on its own domain; this domain repaints the
             dashboard from the live striped counters (readers tolerate
             slightly stale values) until the workers join. *)
          let runner =
            Domain.spawn (fun () ->
                Fun.protect
                  ~finally:(fun () -> Atomic.set finished true)
                  (fun () ->
                    run_prepared ~tracer ~metrics:plane ~metrics_steps:tspec.tp_steps spec p
                      ~with_telemetry:false))
          in
          let name_of_region = Metrics_plane.name_of_region (System.registry p.pr_system) in
          let start = Unix.gettimeofday () in
          let prev = Hashtbl.create 8 in
          let prev_t = ref start in
          let frame () =
            let now = Unix.gettimeofday () in
            let dt = now -. !prev_t in
            prev_t := now;
            let rates =
              List.filter_map
                (fun row ->
                  let commits = row.Registry.row_stats.Region_stats.s_commits in
                  let old =
                    Option.value ~default:0 (Hashtbl.find_opt prev row.Registry.row_name)
                  in
                  Hashtbl.replace prev row.Registry.row_name commits;
                  if dt > 0.0 then
                    Some (row.Registry.row_name, float_of_int (commits - old) /. dt)
                  else None)
                (Registry.report (System.registry p.pr_system))
            in
            top_frame ~spec ~plane ~tuner:p.pr_tuner ~tracer ~name_of_region
              ~system:p.pr_system ~port ~rates ~elapsed:(now -. start)
          in
          while not (Atomic.get finished) do
            print_string ("\027[2J\027[H" ^ frame ());
            flush stdout;
            Unix.sleepf tspec.tp_refresh
          done;
          let outcome = Domain.join runner in
          Metrics_plane.stop_server plane;
          print_string ("\027[2J\027[H" ^ frame ());
          flush stdout;
          print_newline ();
          print_run_header spec outcome;
          if outcome.ro_verified then 0 else 1)

(* -- Cmdliner wiring ----------------------------------------------------------- *)

let dsa_cmd =
  Cmd.v (Cmd.info "dsa" ~doc:"Print the compile-time partition inventory")
    Term.(const cmd_dsa $ const ())

let list_cmd =
  Cmd.v (Cmd.info "list" ~doc:"List workloads and strategies") Term.(const cmd_list $ const ())

(* Numeric flags are range-checked while parsing, so a bad value is a
   usage error that names the flag (exit 124) rather than an exception or a
   meaningless result after the run. *)
let checked what ok conv =
  let parse s =
    match Arg.conv_parser conv s with
    | Ok v when ok v -> Ok v
    | Ok _ -> Error (`Msg (Printf.sprintf "%S is not %s" s what))
    | Error _ as e -> e
  in
  Arg.conv ~docv:(Arg.conv_docv conv) (parse, Arg.conv_printer conv)

let positive_int = checked "a positive integer" (fun n -> n > 0) Arg.int
let positive_float = checked "a positive number" (fun x -> Float.is_finite x && x > 0.0) Arg.float
let non_negative_int = checked "a non-negative integer" (fun n -> n >= 0) Arg.int
let tcp_port = checked "a TCP port (0..65535)" (fun n -> n >= 0 && n <= 65535) Arg.int

let spec_term =
  let workload =
    Arg.(required & pos 0 (some string) None & info [] ~docv:"WORKLOAD" ~doc:"Workload name")
  in
  let strategy =
    Arg.(value & opt string "tuned" & info [ "strategy"; "s" ] ~docv:"STRATEGY" ~doc:"Configuration strategy")
  in
  let workers =
    Arg.(value & opt positive_int 8 & info [ "workers"; "w" ] ~docv:"N" ~doc:"Worker count")
  in
  let backend =
    Arg.(value & opt string "sim" & info [ "backend"; "b" ] ~docv:"BACKEND" ~doc:"sim or domains")
  in
  let seconds =
    Arg.(
      value & opt positive_float 1.0
      & info [ "seconds" ] ~docv:"S" ~doc:"Duration (domains backend)")
  in
  let cycles =
    Arg.(
      value & opt positive_int 3_000_000
      & info [ "cycles" ] ~docv:"C" ~doc:"Virtual duration (sim backend)")
  in
  let seed = Arg.(value & opt int 42 & info [ "seed" ] ~docv:"SEED" ~doc:"Workload RNG seed") in
  (* The conv prints via [Cm.to_string], so the flag round-trips: any value
     the CLI displays is accepted back verbatim. *)
  let cm_conv =
    let parse s = Result.map_error (fun m -> `Msg ("--cm " ^ m)) (Cm.of_string s) in
    Arg.conv ~docv:"CM" (parse, fun ppf cm -> Format.pp_print_string ppf (Cm.to_string cm))
  in
  let cm =
    Arg.(
      value
      & opt (some cm_conv) None
      & info [ "cm" ] ~docv:"CM"
          ~doc:
            "Contention manager: $(b,suicide), $(b,backoff(MIN..MAX)) or $(b,constant(N)) \
             (default: the engine's backoff)")
  in
  (* Same round-trip discipline as [cm_conv]: printing goes through
     [Protocol.to_string], so any displayed value parses back. *)
  let protocol_conv =
    let parse s =
      let target, proto =
        match String.index_opt s '=' with
        | Some i -> (Some (String.sub s 0 i), String.sub s (i + 1) (String.length s - i - 1))
        | None -> (None, s)
      in
      match Protocol.of_string proto with
      | Ok p -> Ok (target, p)
      | Error m -> Error (`Msg ("--protocol " ^ m))
    in
    let print ppf (target, p) =
      match target with
      | Some name -> Format.fprintf ppf "%s=%s" name (Protocol.to_string p)
      | None -> Format.pp_print_string ppf (Protocol.to_string p)
    in
    Arg.conv ~docv:"PROTO" (parse, print)
  in
  let protocols =
    Arg.(
      value
      & opt_all protocol_conv []
      & info [ "protocol" ] ~docv:"[PARTITION=]PROTO"
          ~doc:
            "Force a concurrency-control protocol — $(b,sv), $(b,mv<depth>) (e.g. $(b,mv8)) or \
             $(b,ctl) — on one partition ($(b,name=mv8)) or on all of them (bare $(b,mv8)). \
             Repeatable; applied after workload setup, left to the tuner afterwards \
             (unknown partition names fail; see `partstm list`)")
  in
  let telemetry_out =
    Arg.(
      value
      & opt (some string) None
      & info [ "telemetry-out" ] ~docv:"DIR"
          ~doc:"Write the telemetry time series as CSV and JSON into $(docv)")
  in
  let make workload_name strategy_name workers backend seconds cycles seed cm protocols
      telemetry_out =
    {
      workload_name;
      strategy_name;
      workers;
      backend;
      seconds;
      cycles;
      seed;
      cm;
      protocols;
      telemetry_out;
    }
  in
  Term.(
    const make $ workload $ strategy $ workers $ backend $ seconds $ cycles $ seed $ cm
    $ protocols $ telemetry_out)

let run_cmd =
  Cmd.v
    (Cmd.info "run" ~doc:"Run one workload and print throughput and per-partition statistics")
    Term.(const cmd_run $ spec_term)

let see_also_profile =
  [
    `S Manpage.s_see_also;
    `P
      "$(b,partstm profile) records per-attempt spans and per-orec contention instead of \
       per-period aggregates.";
  ]

let stats_cmd =
  Cmd.v
    (Cmd.info "stats" ~man:see_also_profile
       ~doc:
         "Run one workload under telemetry and print per-partition totals, mode switches and \
          per-period sparklines")
    Term.(const cmd_stats $ spec_term)

let trace_cmd =
  Cmd.v
    (Cmd.info "trace" ~man:see_also_profile
       ~doc:
         "Run one workload under telemetry and print the per-partition per-period time series \
          and the tuner decision log")
    Term.(const cmd_trace $ spec_term)

let profile_spec_term =
  let sampling =
    Arg.(
      value & opt positive_int 1
      & info [ "sampling" ] ~docv:"N"
          ~doc:
            "Keep one span per $(docv) attempts (deterministic per-shard streams; counters, \
             heatmap and latency histograms stay exact)")
  in
  let top_k =
    Arg.(
      value & opt non_negative_int 10
      & info [ "top-k" ] ~docv:"K" ~doc:"Rows in the hottest-orecs table")
  in
  let trace_out =
    Arg.(
      value
      & opt (some string) None
      & info [ "trace-out" ] ~docv:"DIR"
          ~doc:
            "Write the Chrome trace_event JSON, folded-stacks text and contention JSON into \
             $(docv)")
  in
  let make pf_run pf_sampling pf_top_k pf_trace_out =
    { pf_run; pf_sampling; pf_top_k; pf_trace_out }
  in
  Term.(const make $ spec_term $ sampling $ top_k $ trace_out)

let profile_cmd =
  Cmd.v
    (Cmd.info "profile"
       ~doc:
         "Run one workload under the transaction tracer, one engine tap that records \
          per-attempt spans with abort causes and retry chains and keeps exact hot-orec \
          heatmaps and commit/abort/lock-wait latency percentiles; with Perfetto-loadable \
          Chrome trace export"
       ~man:
         [
           `S Manpage.s_description;
           `P
             "Timestamps are virtual cycles on the $(b,sim) backend (tracing does not perturb \
              the deterministic schedule) and nanoseconds on $(b,domains). With \
              $(b,--trace-out) the run writes $(i,workload)-trace.json (trace_event format), \
              $(i,workload)-folded.txt (flamegraph input) and $(i,workload)-contention.json.";
         ])
    Term.(const cmd_profile $ profile_spec_term)

let slo_arg subcommand =
  Arg.(
    value & opt_all string []
    & info [ "slo" ] ~docv:"SPEC"
        ~doc:
          (Printf.sprintf
             "Latency objective for %s, e.g. $(b,commit_p99<50000): source ($(b,commit) or \
              $(b,abort)), quantile, threshold in the backend's units (virtual cycles on \
              $(b,sim), nanoseconds on $(b,domains)). Repeatable, once per name; default \
              $(b,commit_p99<4096) on sim, $(b,commit_p99<1000000) on domains"
             subcommand))

let metrics_spec_term =
  let out =
    Arg.(
      value
      & opt (some string) None
      & info [ "out"; "o" ] ~docv:"FILE"
          ~doc:"Write the OpenMetrics text to $(docv) instead of stdout")
  in
  let artifacts =
    Arg.(
      value
      & opt (some string) None
      & info [ "artifacts" ] ~docv:"DIR"
          ~doc:
            "Also write the full artifact set into $(docv): OpenMetrics text (.om), the \
             worker×partition affinity matrix as CSV and canonical JSON, and the SLO status \
             JSON")
  in
  let steps =
    Arg.(
      value & opt non_negative_int 0
      & info [ "metrics-steps" ] ~docv:"N"
          ~doc:
            "In-run sampling periods (default 0: one final sample only, which leaves \
             simulated schedules bit-identical to a metrics-off run)")
  in
  let make mt_run mt_out mt_artifacts mt_slos mt_steps =
    { mt_run; mt_out; mt_artifacts; mt_slos; mt_steps }
  in
  Term.(const make $ spec_term $ out $ artifacts $ slo_arg "the run" $ steps)

let metrics_cmd =
  Cmd.v
    (Cmd.info "metrics"
       ~doc:
         "Run one workload under the always-on metrics plane and export the result as \
          OpenMetrics text (validated by the built-in parser before it is written), plus the \
          worker×partition affinity matrix and SLO status"
       ~man:
         [
           `S Manpage.s_description;
           `P
             "The metrics plane samples every partition's statistics counters, renders the \
              exposition from the last sample, tracks latency SLOs over the whole-attempt \
              commit/abort histograms, and reads the worker×partition access-affinity matrix \
              off the per-worker statistics stripes. With the default $(b,--metrics-steps 0) the \
              plane adds no scheduling action at all: taps charge no virtual time, so a \
              $(b,sim) run's schedule is bit-identical to the same run without metrics.";
         ])
    Term.(const cmd_metrics $ metrics_spec_term)

let top_spec_term =
  let refresh =
    Arg.(
      value & opt positive_float 0.5
      & info [ "refresh" ] ~docv:"S" ~doc:"Dashboard refresh interval in seconds")
  in
  let port =
    Arg.(
      value
      & opt (some tcp_port) None
      & info [ "port" ] ~docv:"PORT"
          ~doc:
            "Also serve the OpenMetrics scrape endpoint on 127.0.0.1:$(docv) for the run's \
             duration (0 picks an ephemeral port)")
  in
  let steps =
    Arg.(
      value & opt non_negative_int 20
      & info [ "metrics-steps" ] ~docv:"N"
          ~doc:"In-run sampling periods feeding the SLO windows and mirrored counters")
  in
  let make tp_run tp_refresh tp_port tp_slos tp_steps =
    { tp_run; tp_refresh; tp_port; tp_slos; tp_steps }
  in
  Term.(const make $ spec_term $ refresh $ port $ slo_arg "the dashboard" $ steps)

let top_cmd =
  Cmd.v
    (Cmd.info "top"
       ~doc:
         "Run one workload while rendering a live-refreshing ASCII dashboard: per-partition \
          throughput, abort rate and protocol, SLO status, the worker×partition affinity \
          matrix, hottest orecs (exact counts from a tracer that keeps one span in 64), and \
          the tuner's last decisions with their structured explanations")
    Term.(const cmd_top $ top_spec_term)

let check_spec_term =
  let scenario =
    Arg.(
      value
      & pos 0 (some string) None
      & info [] ~docv:"SCENARIO" ~doc:"Check scenario (default: all; see `partstm list`)")
  in
  let strategy =
    Arg.(
      value & opt string "pct"
      & info [ "strategy"; "s" ] ~docv:"STRATEGY" ~doc:"Exploration strategy: random, pct or dfs")
  in
  let budget =
    Arg.(value & opt positive_int 256 & info [ "budget" ] ~docv:"N" ~doc:"Schedules per scenario")
  in
  let seed = Arg.(value & opt int 0x9e3779b9 & info [ "seed" ] ~docv:"SEED" ~doc:"Master seed") in
  let kills =
    Arg.(
      value & opt non_negative_int 0
      & info [ "kills" ] ~docv:"N"
          ~doc:"Fault-injection points (fiber kills) per schedule, randomized strategies only")
  in
  let depth =
    Arg.(value & opt positive_int 3 & info [ "depth" ] ~docv:"D" ~doc:"PCT depth (priority-change points + 1)")
  in
  let preemptions =
    Arg.(value & opt non_negative_int 2 & info [ "preemptions" ] ~docv:"P" ~doc:"DFS preemption bound")
  in
  let bug =
    Arg.(
      value
      & opt (some string) None
      & info [ "bug" ] ~docv:"BUG"
          ~doc:
            "Inject a seeded engine bug; the run succeeds only if the checker detects it \
             (mutation testing; see `partstm list`)")
  in
  let make ck_scenario ck_strategy ck_budget ck_seed ck_kills ck_depth ck_preemptions ck_bug =
    { ck_scenario; ck_strategy; ck_budget; ck_seed; ck_kills; ck_depth; ck_preemptions; ck_bug }
  in
  Term.(const make $ scenario $ strategy $ budget $ seed $ kills $ depth $ preemptions $ bug)

let check_cmd =
  Cmd.v
    (Cmd.info "check"
       ~doc:
         "Systematically explore schedules of conflict-heavy scenarios under the deterministic \
          simulator, validating every execution against the opacity oracle and scenario \
          invariants; failures are shrunk to a minimal replayable schedule")
    Term.(const cmd_check $ check_spec_term)

let main_cmd =
  let doc = "Partitioned software transactional memory playground" in
  Cmd.group (Cmd.info "partstm" ~doc)
    [
      dsa_cmd; list_cmd; run_cmd; stats_cmd; trace_cmd; profile_cmd; metrics_cmd; top_cmd;
      check_cmd;
    ]

let () = exit (Cmd.eval' main_cmd)
