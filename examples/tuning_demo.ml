(* Tuning demo: the paper's pitch in one program.

   A multi-structure application (hot update-heavy list, large read-mostly
   tree, scan-updated statistics array, hash set) runs on the simulated
   16-core machine twice: once with one global STM configuration, once with
   per-partition runtime tuning.  The demo prints the throughput of both,
   the tuner's decisions, and the per-partition statistics that drove them.

     dune exec examples/tuning_demo.exe *)

open Partstm_core
open Partstm_harness
open Partstm_workloads

let run ~strategy =
  let workers = 16 in
  let { Workload.system; state = app; tuner } =
    Workload.prepare ~workers ~strategy (fun system ~strategy ->
        Mixed.setup system ~strategy Mixed.default_config)
  in
  let result =
    Driver.run ?tuner ~mode:(Driver.default_sim ~cycles:3_000_000 ()) ~workers (Mixed.worker app)
  in
  assert (Mixed.check app);
  (result.Driver.throughput, tuner, system)

let () =
  print_endline "Running the mixed application on 16 simulated cores...\n";
  let untuned, _, _ = run ~strategy:Strategy.global_invisible in
  let tuned, tuner, system = run ~strategy:Strategy.tuned in
  Printf.printf "one global configuration : %8.0f txn/Mcycle\n" untuned;
  Printf.printf "per-partition tuned      : %8.0f txn/Mcycle  (%+.0f%%)\n\n" tuned
    (100.0 *. ((tuned /. untuned) -. 1.0));
  (match tuner with
  | Some tuner ->
      Printf.printf "What the tuner did:\n";
      List.iter (fun ev -> Format.printf "  %a@." Tuner.pp_event ev) (Tuner.trace tuner)
  | None -> ());
  print_newline ();
  let table =
    Partstm_util.Table.create ~title:"Per-partition profile (tuned run)"
      ~header:[ "partition"; "access%"; "update-ratio"; "abort-rate"; "final mode" ]
  in
  List.iter
    (fun row ->
      Partstm_util.Table.add_row table
        [
          row.Registry.row_name;
          Printf.sprintf "%.1f" (100.0 *. row.Registry.row_access_share);
          Printf.sprintf "%.2f" (Partstm_stm.Region_stats.update_txn_ratio row.Registry.row_stats);
          Printf.sprintf "%.2f" (Partstm_stm.Region_stats.abort_rate row.Registry.row_stats);
          Fmt.str "%a" Partstm_stm.Mode.pp row.Registry.row_mode;
        ])
    (Registry.report (System.registry system));
  Partstm_util.Table.print table;
  print_endline "\ntuning demo OK"
