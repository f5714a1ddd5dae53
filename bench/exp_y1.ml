(* R-Y1: production-shaped traffic — the YCSB-style phased keyed workload
   and the social-feed application, written to BENCH_Y1.json.  All the
   measurement logic lives in [Partstm_workloads.Ycsb] and
   [Partstm_workloads.Feed]; this file picks the sweep sizes and the
   artifact layout.

   The artifact keeps two top-level sections so the CI regression gate can
   apply different policies per subtree:

     "sim"      deterministic virtual-time runs — byte-identical for a
                given build, compared byte-exact by [bench/regress.ml];
     "domains"  wall-clock on real domains, best of [trials] runs —
                host-dependent, compared within a tolerance band.

   The file is written with [Json.merge_into_file]: atomic (temp + rename,
   so an interrupted run cannot commit a truncated artifact) and
   right-biased per key, so re-running one arm refreshes its section
   without clobbering the other. *)

open Partstm_workloads
module Json = Partstm_util.Json

let output_path (cfg : Bench_config.t) =
  match cfg.Bench_config.csv_dir with
  | Some dir -> Filename.concat dir "BENCH_Y1.json"
  | None -> "BENCH_Y1.json"

let progress line = Printf.printf "  %s\n%!" line

let run (cfg : Bench_config.t) =
  Bench_config.section "R-Y1: YCSB phased traffic + social-feed application";
  let quick = cfg.Bench_config.quick in
  let ycsb_config = if quick then Ycsb.quick_config else Ycsb.default_config in
  let feed_config = if quick then Feed.quick_config else Feed.default_config in
  let sim_cycles = Ycsb.bench_sim_cycles ~quick in
  let feed_cycles = Feed.bench_sim_cycles ~quick in
  let workers = Ycsb.bench_workers ~quick in
  let feed_workers = Feed.bench_workers in
  let seed = 42 in

  let ycsb_sim =
    Ycsb.run ~progress ~backend:(`Sim sim_cycles) ~workers ~seed ycsb_config
  in
  print_newline ();
  Partstm_util.Table.print (Ycsb.to_table ycsb_sim);
  print_newline ();
  List.iter Bench_config.show_verdict (Ycsb.checks ycsb_sim);

  let feed_sim =
    Feed.run ~progress ~backend:(`Sim feed_cycles) ~workers:feed_workers ~seed feed_config
  in
  print_newline ();
  Partstm_util.Table.print (Feed.to_table feed_sim);
  print_newline ();
  List.iter Bench_config.show_verdict (Feed.checks feed_sim);

  (* Wall-clock arm: the virtual-time sections above are the reproducible
     record; this one measures the actual machine, so take the best of a
     few short trials to shed scheduler noise. *)
  let trials = if quick then 2 else 3 in
  let seconds = if quick then 0.2 else 1.0 in
  let ycsb_wall =
    let best = ref None in
    for trial = 1 to trials do
      let report =
        Ycsb.run ~progress ~backend:(`Domains seconds) ~workers ~seed:(seed + trial)
          ycsb_config
      in
      match !best with
      | Some b when b.Ycsb.r_result.Partstm_harness.Driver.throughput
                    >= report.Ycsb.r_result.Partstm_harness.Driver.throughput ->
          ()
      | _ -> best := Some report
    done;
    Option.get !best
  in
  print_newline ();
  Partstm_util.Table.print (Ycsb.to_table ycsb_wall);
  print_newline ();
  List.iter Bench_config.show_verdict (Ycsb.checks ycsb_wall);

  let doc =
    Json.Obj
      [
        ("schema", Json.String "partstm.bench.y1/1");
        ("quick", Json.Bool quick);
        ( "sim",
          Json.Obj [ ("ycsb", Ycsb.to_json ycsb_sim); ("feed", Feed.to_json feed_sim) ] );
        ( "domains",
          Json.Obj [ ("trials", Json.Int trials); ("ycsb", Ycsb.to_json ycsb_wall) ] );
      ]
  in
  let path = output_path cfg in
  Json.merge_into_file ~path doc;
  Printf.printf "(json: %s)\n" path
