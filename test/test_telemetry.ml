(* Telemetry series: the metrics plane's per-period rows must sum to the
   final partition snapshots on a deterministic simulated run, exports must
   parse back cleanly, and the phased workload must provably switch modes
   (non-zero [mode_switches]) with the tuner's stamped decision log
   agreeing with the switch count. *)

open Partstm_util
open Partstm_stm
open Partstm_core
open Partstm_harness
open Partstm_workloads

let check = Alcotest.check
let metrics_steps = 40

(* One deterministic tuned run of the phased workload with the plane
   attached (affinity tap on) and a 1-in-64 tracer; shared by all cases
   below. *)
let tuned_phased_run () =
  let system = System.create ~max_workers:16 () in
  let state = Phased.setup system ~strategy:Strategy.tuned Phased.default_config in
  Registry.reset_stats (System.registry system);
  let tuner = System.tuner system in
  let plane = Metrics_plane.create (System.registry system) in
  let tracer = Partstm_obs.Tracer.create ~sample_every:64 () in
  Metrics_plane.attach plane;
  Partstm_obs.Tracer.attach tracer (System.engine system);
  let result =
    Fun.protect
      ~finally:(fun () ->
        Metrics_plane.detach plane;
        Partstm_obs.Tracer.detach tracer)
      (fun () ->
        (* Enough cycles that each sampling period clears the policy's
           [min_attempts] floor and the phase flips provably trigger
           switches. *)
        Driver.run ~tuner ~tracer ~metrics:plane ~metrics_steps
          ~mode:(Driver.default_sim ~cycles:500_000 ()) ~workers:8
          (fun ctx -> Phased.worker state ctx))
  in
  if not (Phased.check state) then Alcotest.fail "phased invariants violated";
  (system, tuner, plane, result)

let test_sums_match_final_snapshot () =
  let system, _, plane, _ = tuned_phased_run () in
  let report = Registry.report (System.registry system) in
  (* The last in-run tick falls past the deadline and is skipped; the
     after-run sample closes the last period. *)
  check Alcotest.int "periods = metrics_steps" metrics_steps (Metrics_plane.samples plane);
  check Alcotest.int "no samples dropped" 0 (Metrics_plane.dropped_samples plane);
  let rows = Metrics_plane.series plane in
  check Alcotest.int "one row per partition per period"
    (List.length report * Metrics_plane.samples plane)
    (List.length rows);
  List.iter
    (fun row ->
      let name = row.Registry.row_name in
      List.iter
        (fun (field, get) ->
          let summed =
            List.fold_left
              (fun acc s ->
                if s.Metrics_plane.sm_partition = name then acc + get s.Metrics_plane.sm_delta
                else acc)
              0 rows
          in
          check Alcotest.int
            (Printf.sprintf "%s/%s: period deltas sum to final snapshot" name field)
            (get row.Registry.row_stats) summed)
        Region_stats.fields)
    report

let test_mode_switches_and_decisions () =
  let system, tuner, _, result = tuned_phased_run () in
  let switches = Tuner.switches tuner in
  check Alcotest.bool "phased workload provably switches modes" true (switches > 0);
  let report = Registry.report (System.registry system) in
  let counted =
    List.fold_left
      (fun acc row -> acc + row.Registry.row_stats.Region_stats.s_mode_switches)
      0 report
  in
  check Alcotest.int "mode_switches stat counts every applied switch" switches counted;
  let decisions = Tuner.trace tuner in
  check Alcotest.int "trace holds every decision" switches (List.length decisions);
  let elapsed = int_of_float result.Driver.elapsed in
  ignore
    (List.fold_left
       (fun prev (ev : Tuner.event) ->
         check Alcotest.bool "decision stamped with virtual time in [0, elapsed]" true
           (ev.Tuner.ev_time >= 0 && ev.Tuner.ev_time <= elapsed);
         check Alcotest.bool "decision times never decrease" true (ev.Tuner.ev_time >= prev);
         ev.Tuner.ev_time)
       0 decisions)

let test_csv_roundtrip () =
  let _, _, plane, _ = tuned_phased_run () in
  let rows = Telemetry.to_csv_rows plane in
  check Alcotest.(list string) "header row" Telemetry.columns (List.hd rows);
  check Alcotest.int "one row per sample (plus header)"
    (List.length (Metrics_plane.series plane) + 1)
    (List.length rows);
  let text = String.concat "" (List.map (fun r -> Csv.row_to_string r ^ "\n") rows) in
  check Alcotest.(list (list string)) "CSV parses back to the same rows" rows
    (Csv.parse_string text);
  (* every data row is fully populated: one cell per column *)
  let width = List.length Telemetry.columns in
  List.iter
    (fun row -> check Alcotest.int "row width" width (List.length row))
    rows

let test_json_roundtrip () =
  let _, tuner, plane, _ = tuned_phased_run () in
  let json = Telemetry.to_json ~tuner:(Some tuner) plane in
  match Json.of_string (Json.to_string json) with
  | Error message -> Alcotest.failf "exported JSON does not parse: %s" message
  | Ok parsed ->
      check Alcotest.bool "JSON roundtrips structurally" true (parsed = json);
      check Alcotest.(option string) "schema tag" (Some "partstm.telemetry/2")
        (Option.bind (Json.member "schema" parsed) Json.to_str);
      check Alcotest.(option int) "dropped decisions" (Some 0)
        (Option.bind (Json.member "dropped_decisions" parsed) Json.to_int);
      let list_len key =
        match Option.bind (Json.member key parsed) Json.to_list with
        | Some items -> List.length items
        | None -> Alcotest.failf "missing %s array" key
      in
      check Alcotest.int "samples array" (List.length (Metrics_plane.series plane))
        (list_len "samples");
      check Alcotest.int "decisions array" (Tuner.switches tuner) (list_len "decisions")

(* Sampling must not perturb the deterministic schedule: two identical
   runs yield the identical series and decision log. *)
let test_deterministic_series () =
  let series () =
    let _, tuner, plane, _ = tuned_phased_run () in
    ( List.map
        (fun s ->
          ( s.Metrics_plane.sm_index,
            s.Metrics_plane.sm_time,
            s.Metrics_plane.sm_partition,
            s.Metrics_plane.sm_delta.Region_stats.s_commits,
            s.Metrics_plane.sm_total.Region_stats.s_aborts ))
        (Metrics_plane.series plane),
      Tuner.trace tuner )
  in
  let a = series () and b = series () in
  check Alcotest.bool "identical sample series" true (fst a = fst b);
  check Alcotest.bool "identical decision log" true (snd a = snd b)

(* Past its 100_000-row cap the series keeps the newest rows and counts
   every evicted one. *)
let test_series_capped () =
  let system = System.create ~max_workers:4 () in
  ignore (System.partition system "only");
  let plane = Metrics_plane.create (System.registry system) in
  let cap = 100_000 and extra = 7 in
  for _ = 1 to cap + extra do
    Metrics_plane.sample plane
  done;
  let rows = Metrics_plane.series plane in
  check Alcotest.int "series capped" cap (List.length rows);
  check Alcotest.int "evictions counted" extra (Metrics_plane.dropped_samples plane);
  check Alcotest.int "periods still exact" (cap + extra) (Metrics_plane.samples plane);
  check Alcotest.int "oldest kept" extra (List.hd rows).Metrics_plane.sm_index;
  check Alcotest.int "newest kept" (cap + extra - 1)
    (List.nth rows (cap - 1)).Metrics_plane.sm_index

let () =
  Alcotest.run "telemetry"
    [
      ( "telemetry",
        [
          Alcotest.test_case "period sums = final snapshot" `Quick test_sums_match_final_snapshot;
          Alcotest.test_case "mode switches + decisions" `Quick test_mode_switches_and_decisions;
          Alcotest.test_case "csv roundtrip" `Quick test_csv_roundtrip;
          Alcotest.test_case "json roundtrip" `Quick test_json_roundtrip;
          Alcotest.test_case "deterministic series" `Quick test_deterministic_series;
          Alcotest.test_case "series capped" `Quick test_series_capped;
        ] );
    ]
