(* R-T1: partition inventory and per-partition characteristics.

   Reproduces the paper's claim that "these applications contain partitions
   with different characteristics": the compile-time analysis derives the
   inventory, and a tuned run at 8 workers shows per-partition access
   shares, update ratios and abort rates differing widely within one
   application. *)

open Partstm_util
open Partstm_stm
open Partstm_core
open Partstm_harness
open Partstm_workloads

let run_and_report (cfg : Bench_config.t) (Workload.Workload w) =
  let workers = 8 in
  let p = Workload.prepare ~workers ~strategy:Strategy.tuned w.setup in
  let result =
    Driver.run ?tuner:p.tuner
      ~mode:(Driver.default_sim ~cycles:(Bench_config.sim_cycles cfg) ())
      ~workers (w.worker p.state)
  in
  if not (w.check p.state ~total_ops:result.Driver.total_ops) then
    failwith ("R-T1: invariants violated on " ^ w.name);
  List.map (fun row -> (w.name, row)) (Registry.report (System.registry p.system))

let run (cfg : Bench_config.t) =
  Bench_config.section "R-T1: partition inventory and per-partition characteristics";
  (* Compile-time inventory from the DSA mirrors. *)
  Table.print (Partstm_dsa.Report.inventory_table ());
  print_newline ();
  (* Runtime per-partition statistics (8 workers, tuned). *)
  let rows =
    List.concat_map
      (fun name -> run_and_report cfg (Workload.get name))
      [ "mixed"; "vacation"; "kmeans"; "genome"; "labyrinth"; "bank" ]
  in
  let table =
    Table.create ~title:"R-T1: per-partition statistics (8 workers, tuned)"
      ~header:
        [ "benchmark"; "partition"; "tvars"; "access%"; "update-ratio"; "abort-rate"; "final mode" ]
  in
  List.iter
    (fun (bench, row) ->
      let stats = row.Registry.row_stats in
      Table.add_row table
        [
          bench;
          row.Registry.row_name;
          string_of_int row.Registry.row_tvars;
          Printf.sprintf "%.1f" (100.0 *. row.Registry.row_access_share);
          Printf.sprintf "%.3f" (Region_stats.update_txn_ratio stats);
          Printf.sprintf "%.3f" (Region_stats.abort_rate stats);
          Fmt.str "%a" Mode.pp row.Registry.row_mode;
        ])
    rows;
  Table.print table
