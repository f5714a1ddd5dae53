(* R-M1: concurrency-control protocol comparison — the same read-dominated
   ledger under single-version, multi-version and commit-time locking on
   identical simulated schedules, plus the tuner-autonomy phase, written to
   BENCH_M1.json.  All measurement logic lives in
   [Partstm_workloads.Protocol_bench]; this file picks the sweep size and
   the output location.  The report is written through
   [Json.merge_into_file]: merged over any existing file (re-running one
   arm refreshes its keys without clobbering keys another run committed)
   and renamed into place atomically, so an interrupted run cannot leave a
   truncated artifact. *)

open Partstm_workloads
module Json = Partstm_util.Json

let output_path (cfg : Bench_config.t) =
  match cfg.Bench_config.csv_dir with
  | Some dir -> Filename.concat dir "BENCH_M1.json"
  | None -> "BENCH_M1.json"

let run (cfg : Bench_config.t) =
  Bench_config.section "R-M1: protocol comparison (sv / mv / ctl) + tuner autonomy";
  let config =
    if cfg.Bench_config.quick then Protocol_bench.quick_config
    else Protocol_bench.default_config
  in
  let report =
    Protocol_bench.run ~progress:(fun line -> Printf.printf "  %s\n%!" line) config
  in
  print_newline ();
  Partstm_util.Table.print (Protocol_bench.to_table report);
  print_newline ();
  List.iter Bench_config.show_verdict (Protocol_bench.checks report);
  let path = output_path cfg in
  Json.merge_into_file ~path (Protocol_bench.to_json report);
  Printf.printf "(json: %s)\n" path
