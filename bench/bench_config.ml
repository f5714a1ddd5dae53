(* Shared configuration for the bench experiments. *)

open Partstm_harness
open Partstm_workloads

type t = {
  quick : bool;  (* smaller sweeps for smoke-testing the bench itself *)
  csv_dir : string option;  (* where to drop per-figure CSVs *)
}

let worker_counts t = if t.quick then [ 1; 4; 16 ] else [ 1; 2; 4; 8; 16 ]
let sim_cycles t = if t.quick then 1_000_000 else 3_000_000

(* The simulator is deterministic per seed, so the honest variance source is
   the workload seed; throughput points average a few seeds. *)
let seeds t = if t.quick then [ 42 ] else [ 42; 1337; 90210 ]

let default_mode ?model t =
  Driver.default_sim ~cycles:(sim_cycles t) ?model ()

(* Run one workload instance under a strategy and report throughput
   (ops per million simulated cycles), averaged over the seed set; every
   run's invariants are verified. *)
let run_workload t ~workers ~strategy ?model (Workload.Workload w) =
  let one seed =
    let p = Workload.prepare ~workers ~strategy w.setup in
    let result =
      Driver.run ?tuner:p.tuner ~seed ~mode:(default_mode ?model t) ~workers (w.worker p.state)
    in
    if not (w.check p.state ~total_ops:result.Driver.total_ops) then
      failwith
        (Printf.sprintf "bench: workload verification failed (%s, seed %d)"
           (Strategy.label strategy) seed);
    result.Driver.throughput
  in
  let samples = List.map one (seeds t) in
  List.fold_left ( +. ) 0.0 samples /. float_of_int (List.length samples)

let emit t figure =
  Figure.print figure;
  match t.csv_dir with
  | Some dir ->
      let path = Figure.save_csv ~dir figure in
      Printf.printf "(csv: %s)\n\n" path
  | None -> ()

let section title =
  Printf.printf "\n%s\n%s\n\n" title (String.make (String.length title) '=')

(* Set by [show_verdict] on any [`Failed] acceptance check; [main.ml] exits
   1 once every selected experiment has run and written its artifact.  A
   [`Skipped] check (a host too small to measure it) is not a failure. *)
let failed = ref false

let show_verdict (name, verdict) =
  match verdict with
  | `Passed -> Printf.printf "check %-24s passed\n" name
  | `Failed reason ->
      failed := true;
      Printf.printf "check %-24s FAILED: %s\n" name reason
  | `Skipped reason -> Printf.printf "check %-24s skipped: %s\n" name reason
