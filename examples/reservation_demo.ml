(* Reservation demo: composing transactional data structures into an
   application — a miniature travel-booking system (the vacation workload's
   domain) with an exact conservation invariant.

     dune exec examples/reservation_demo.exe *)

open Partstm_core
open Partstm_harness
open Partstm_workloads

let () =
  let config = { Vacation.default_config with items_per_table = 64; customer_range = 64 } in
  let workers = 8 in
  let { Workload.system; state = app; tuner } =
    Workload.prepare ~workers ~strategy:Strategy.tuned (fun system ~strategy ->
        Vacation.setup system ~strategy config)
  in
  let result =
    Driver.run ?tuner ~mode:(Driver.default_sim ~cycles:1_500_000 ()) ~workers
      (Vacation.worker app)
  in
  Printf.printf "processed %d reservation-system transactions on 8 simulated cores\n"
    result.Driver.total_ops;
  Printf.printf "conservation invariant (capacity - available = outstanding reservations): %s\n"
    (if Vacation.check app then "HOLDS" else "VIOLATED");
  List.iter
    (fun row ->
      Printf.printf "  %-20s %5.1f%% of accesses, abort rate %.2f\n" row.Registry.row_name
        (100.0 *. row.Registry.row_access_share)
        (Partstm_stm.Region_stats.abort_rate row.Registry.row_stats))
    (Registry.report (System.registry system));
  assert (Vacation.check app);
  print_endline "reservation demo OK"
