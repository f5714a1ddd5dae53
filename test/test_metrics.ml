(* Tests for the production metrics plane (DESIGN.md §8.3): the striped
   metrics registry under real domains, the OpenMetrics exporter and its
   validating parser (round-trip), the SLO tracker's window/budget
   accounting, the worker × partition affinity matrix — including the
   exact commit/abort reconciliation against [Region_stats] under 4 real
   domains that the [rec_touch] contract guarantees — the tuner's
   explainability surface, and the scrape endpoint. *)

open Partstm_util
open Partstm_stm
open Partstm_core
open Partstm_harness
open Partstm_workloads
module Obs = Partstm_obs

let check = Alcotest.check

let contains haystack needle =
  let h = String.length haystack and n = String.length needle in
  let rec scan i = i + n <= h && (String.sub haystack i n = needle || scan (i + 1)) in
  n = 0 || scan 0

(* -- Metrics registry -------------------------------------------------------- *)

(* Four domains incrementing the same counter on private stripes: the sum
   must be exact after the domains join — same single-writer-per-stripe
   contract as [Region_stats]. *)
let test_counter_exact_under_domains () =
  let m = Obs.Metrics.create ~max_workers:4 () in
  let c = Obs.Metrics.counter m "test_ops" in
  let per_worker = 50_000 in
  let domains =
    List.init 4 (fun worker ->
        Domain.spawn (fun () ->
            for _ = 1 to per_worker do
              Obs.Metrics.incr c ~worker
            done))
  in
  List.iter Domain.join domains;
  check Alcotest.int "counter sums stripes exactly" (4 * per_worker)
    (Obs.Metrics.counter_value c)

let test_registration_idempotent () =
  let m = Obs.Metrics.create ~max_workers:2 () in
  let a = Obs.Metrics.counter m ~labels:[ ("p", "x") ] "dup" in
  let b = Obs.Metrics.counter m ~labels:[ ("p", "x") ] "dup" in
  Obs.Metrics.incr a ~worker:0;
  Obs.Metrics.incr b ~worker:1;
  check Alcotest.int "same (name, labels) is the same instrument" 2
    (Obs.Metrics.counter_value a);
  (* A different label set under the same name is a separate time series. *)
  let other = Obs.Metrics.counter m ~labels:[ ("p", "y") ] "dup" in
  check Alcotest.int "distinct labels are distinct series" 0
    (Obs.Metrics.counter_value other);
  Alcotest.check_raises "kind clash on a name raises"
    (Invalid_argument "Metrics: dup already registered as counter") (fun () ->
      ignore (Obs.Metrics.gauge m "dup"))

let test_histogram_merge () =
  let m = Obs.Metrics.create ~max_workers:2 () in
  let h = Obs.Metrics.histogram m "lat" in
  Obs.Metrics.observe h ~worker:0 10;
  Obs.Metrics.observe h ~worker:1 1000;
  let merged = Obs.Metrics.merged h in
  check Alcotest.int "merged count" 2 (Histogram.count merged);
  check Alcotest.int "merged max" 1000 (Histogram.max_value merged)

(* -- OpenMetrics exporter ----------------------------------------------------- *)

let families_testable =
  let pp ppf (f : Obs.Openmetrics.family) = Fmt.pf ppf "%s" f.Obs.Openmetrics.f_name in
  Alcotest.testable (Fmt.list pp) ( = )

let sample_registry () =
  let m = Obs.Metrics.create ~max_workers:2 () in
  let c = Obs.Metrics.counter m ~help:"a counter" ~labels:[ ("p", "alpha") ] "om_ops" in
  Obs.Metrics.add c ~worker:0 41;
  Obs.Metrics.incr c ~worker:1;
  let g = Obs.Metrics.gauge m ~help:"with \"quotes\" and \\ backslash\nnewline" "om_gauge" in
  Obs.Metrics.set_gauge g 2.5;
  let h = Obs.Metrics.histogram m "om_lat" in
  Obs.Metrics.observe h ~worker:0 3;
  Obs.Metrics.observe h ~worker:0 300;
  m

let test_openmetrics_round_trip () =
  let m = sample_registry () in
  let families = Obs.Metrics.families m in
  let text = Obs.Metrics.render m in
  check Alcotest.bool "terminated by # EOF" true
    (String.length text >= 6 && String.sub text (String.length text - 6) 6 = "# EOF\n");
  match Obs.Openmetrics.parse text with
  | Error msg -> Alcotest.failf "exporter output did not parse: %s" msg
  | Ok parsed ->
      check families_testable "parse (render families) = families" families parsed;
      (* Render is deterministic: same registry, same bytes. *)
      check Alcotest.string "render is stable" text (Obs.Metrics.render m)

let test_openmetrics_rejects_malformed () =
  let expect_error name text =
    match Obs.Openmetrics.parse text with
    | Ok _ -> Alcotest.failf "%s: expected a parse error" name
    | Error _ -> ()
  in
  expect_error "missing EOF" "# TYPE a gauge\na 1\n";
  expect_error "sample before TYPE" "a_total 1\n# EOF\n";
  expect_error "duplicate family" "# TYPE a gauge\n# TYPE a gauge\n# EOF\n";
  expect_error "counter without _total" "# TYPE a counter\na 1\n# EOF\n";
  expect_error "bucket without le" "# TYPE a histogram\na_bucket 1\n# EOF\n";
  expect_error "content after EOF" "# TYPE a gauge\na 1\n# EOF\na 2\n";
  expect_error "unparsable value" "# TYPE a gauge\na one\n# EOF\n"

(* Registration order must not leak into the rendered bytes: two
   registries populated in opposite orders render identically (the
   artifact-diffability contract). *)
let test_openmetrics_order_independent () =
  let build order =
    let m = Obs.Metrics.create ~max_workers:1 () in
    List.iter
      (fun (name, label) ->
        Obs.Metrics.incr (Obs.Metrics.counter m ~labels:[ ("p", label) ] name) ~worker:0)
      order;
    Obs.Metrics.render m
  in
  let a = build [ ("zzz", "b"); ("zzz", "a"); ("aaa", "x") ] in
  let b = build [ ("aaa", "x"); ("zzz", "a"); ("zzz", "b") ] in
  check Alcotest.string "render independent of registration order" a b

(* -- SLO tracker -------------------------------------------------------------- *)

let test_slo_parse () =
  (match Obs.Slo.parse "commit_p99<50000" with
  | Error msg -> Alcotest.failf "parse failed: %s" msg
  | Ok spec ->
      check Alcotest.string "name" "commit_p99" spec.Obs.Slo.sp_name;
      check Alcotest.string "source" "commit" spec.Obs.Slo.sp_source;
      check (Alcotest.float 1e-9) "quantile" 99.0 spec.Obs.Slo.sp_quantile;
      check Alcotest.int "threshold" 50000 spec.Obs.Slo.sp_threshold);
  List.iter
    (fun bad ->
      match Obs.Slo.parse bad with
      | Ok _ -> Alcotest.failf "expected %S to be rejected" bad
      | Error _ -> ())
    [ ""; "commit_p99"; "commit<5"; "commit_p0<5"; "commit_p100<5"; "commit_p99<-3"; "p99<5" ]

let test_slo_windows_and_burn () =
  let source = Histogram.create () in
  let slo = Obs.Slo.create () in
  let spec = match Obs.Slo.parse "commit_p50<100" with Ok s -> s | Error m -> failwith m in
  ignore (Obs.Slo.add slo spec ~source:(fun () -> source));
  (* Window 1: empty — vacuously compliant, not counted as evaluated. *)
  Obs.Slo.evaluate slo;
  let st () = List.hd (Obs.Slo.statuses slo) in
  check Alcotest.bool "empty window vacuously ok" true (st ()).Obs.Slo.st_window_ok;
  check Alcotest.int "empty window not counted" 0 (st ()).Obs.Slo.st_windows;
  (* Window 2: all observations fast — compliant. *)
  for _ = 1 to 10 do
    Histogram.observe source 50
  done;
  Obs.Slo.evaluate slo;
  check Alcotest.bool "fast window ok" true (st ()).Obs.Slo.st_window_ok;
  check Alcotest.int "windows counted" 1 (st ()).Obs.Slo.st_windows;
  check Alcotest.int "violations" 0 (st ()).Obs.Slo.st_violations;
  (* Window 3: all observations slow — the p50 target is blown. *)
  for _ = 1 to 10 do
    Histogram.observe source 100_000
  done;
  Obs.Slo.evaluate slo;
  check Alcotest.bool "slow window violated" false (st ()).Obs.Slo.st_window_ok;
  check Alcotest.int "violation counted" 1 (st ()).Obs.Slo.st_violations;
  check Alcotest.bool "ok reflects last window" false (Obs.Slo.ok slo);
  (* Cumulative: 10 bad of 20 with a p50 target → the error budget of
     0.5 * 20 = 10 allowed misses is exactly exhausted. *)
  check (Alcotest.float 1e-9) "budget burn" 1.0 (st ()).Obs.Slo.st_budget_burn;
  check Alcotest.int "windowed observations counted once" 20 (st ()).Obs.Slo.st_total_count;
  (* JSON snapshot is canonical: two renders are byte-identical. *)
  check Alcotest.string "slo json stable"
    (Json.to_string (Obs.Slo.to_json slo))
    (Json.to_string (Obs.Slo.to_json slo))

(* -- Affinity matrix ---------------------------------------------------------- *)

let test_affinity_sim_deterministic () =
  let snapshot () =
    let system = System.create ~max_workers:12 () in
    let state = Bank.setup system ~strategy:Strategy.shared_invisible Bank.default_config in
    Registry.reset_stats (System.registry system);
    let plane = Metrics_plane.create (System.registry system) in
    Metrics_plane.attach plane;
    let result =
      Driver.run ~metrics:plane ~seed:7
        ~mode:(Driver.default_sim ~cycles:200_000 ())
        ~workers:4 (Bank.worker state)
    in
    Metrics_plane.detach plane;
    ( result.Driver.per_worker_ops,
      Obs.Affinity.cells (Metrics_plane.affinity plane),
      Json.to_string (Obs.Affinity.to_json (Metrics_plane.affinity plane)) )
  in
  let ops_a, cells_a, json_a = snapshot () in
  let ops_b, cells_b, json_b = snapshot () in
  check Alcotest.bool "schedules identical" true (ops_a = ops_b);
  check Alcotest.bool "affinity cells identical" true (cells_a = cells_b);
  check Alcotest.string "canonical affinity json byte-identical" json_a json_b;
  check Alcotest.bool "matrix non-empty" true (cells_a <> [])

(* The acceptance check: under 4 real domains, per-region commit/abort sums
   over workers reconcile EXACTLY with [Region_stats] — the [rec_touch]
   contract (each attempt's touched-region set is exactly the set whose
   per-region counters the engine bumps on finalize/rollback). *)
let test_affinity_reconciles_with_region_stats () =
  let workers = 4 in
  let system = System.create ~max_workers:(workers + 2) () in
  let pa = System.partition system "recon-a" in
  let pb = System.partition system "recon-b" in
  let slots_a = Array.init 8 (fun _ -> System.tvar pa 0) in
  let slots_b = Array.init 8 (fun _ -> System.tvar pb 0) in
  let affinity = Obs.Affinity.create () in
  Obs.Affinity.attach affinity (System.engine system);
  let per_worker = 3_000 in
  let domains =
    List.init workers (fun id ->
        Domain.spawn (fun () ->
            let txn = System.descriptor system ~worker_id:id in
            let rng = Rng.make (0xACC + id) in
            for _ = 1 to per_worker do
              let i = Rng.int rng 8 in
              System.atomically txn (fun t ->
                  (* Every transaction touches partition A; half also touch
                     partition B — different totals per region, so a
                     bookkeeping mix-up cannot cancel out. *)
                  System.write t slots_a.(i) (System.read t slots_a.(i) + 1);
                  if i land 1 = 0 then
                    System.write t slots_b.(i) (System.read t slots_b.(i) + 1))
            done))
  in
  List.iter Domain.join domains;
  Obs.Affinity.detach affinity;
  let expect name (partition : Partition.t) =
    let region = (Partition.region partition).Region.id in
    let snap = Partition.snapshot partition in
    match
      List.find_opt (fun (r, _, _) -> r = region) (Obs.Affinity.region_totals affinity)
    with
    | None -> Alcotest.failf "%s: region %d missing from the affinity matrix" name region
    | Some (_, commits, aborts) ->
        check Alcotest.int (name ^ ": commits reconcile exactly")
          snap.Region_stats.s_commits commits;
        check Alcotest.int (name ^ ": aborts reconcile exactly") snap.Region_stats.s_aborts
          aborts
  in
  expect "partition A" pa;
  expect "partition B" pb;
  (* Worker-level exactness for commits, against the per-worker stripes. *)
  let region_a = (Partition.region pa).Region.id in
  let cells = Obs.Affinity.cells affinity in
  for worker = 0 to workers - 1 do
    let stripe = Region_stats.worker_snapshot (Partition.region pa).Region.stats worker in
    let cell_commits =
      List.fold_left
        (fun acc (c : Obs.Affinity.cell_total) ->
          if c.Obs.Affinity.ax_worker = worker && c.Obs.Affinity.ax_region = region_a then
            acc + c.Obs.Affinity.ax_commits
          else acc)
        0 cells
    in
    check Alcotest.int
      (Printf.sprintf "worker %d commits on A reconcile" worker)
      stripe.Region_stats.s_commits cell_commits
  done;
  (* Every committed attempt touched A, so the whole-attempt commit-latency
     histogram observes exactly A's commit total. *)
  check Alcotest.int "commit latency observed once per commit"
    (Partition.snapshot pa).Region_stats.s_commits
    (Histogram.count (Obs.Affinity.commit_latency affinity))

(* -- Metrics plane + driver ---------------------------------------------------- *)

let test_plane_mirrors_and_slo () =
  let slos =
    [ (match Obs.Slo.parse "commit_p99<1000000" with Ok s -> s | Error m -> failwith m) ]
  in
  let system = System.create ~max_workers:12 () in
  let state = Bank.setup system ~strategy:Strategy.shared_invisible Bank.default_config in
  Registry.reset_stats (System.registry system);
  let plane = Metrics_plane.create ~slos (System.registry system) in
  Metrics_plane.attach plane;
  ignore
    (Driver.run ~metrics:plane ~seed:11
       ~mode:(Driver.default_sim ~cycles:200_000 ())
       ~workers:2 (Bank.worker state));
  Metrics_plane.detach plane;
  check Alcotest.bool "final sample always taken" true (Metrics_plane.samples plane >= 1);
  let text = Metrics_plane.openmetrics plane in
  (match Obs.Openmetrics.parse text with
  | Error msg -> Alcotest.failf "plane exposition invalid: %s" msg
  | Ok families -> check Alcotest.bool "families exported" true (List.length families > 5));
  check Alcotest.bool "mirrored commit counter present" true
    (contains text "partstm_commits_total{partition=");
  check Alcotest.bool "slo gauge present" true (contains text "partstm_slo_compliance");
  check Alcotest.bool "latency histogram present" true
    (contains text "partstm_commit_latency_bucket")

let test_scrape_endpoint () =
  let m = sample_registry () in
  let server = Metrics_server.start ~content:(fun () -> Obs.Metrics.render m) () in
  let port = Metrics_server.port server in
  check Alcotest.bool "ephemeral port assigned" true (port > 0);
  let get path =
    let sock = Unix.socket Unix.PF_INET Unix.SOCK_STREAM 0 in
    Fun.protect
      ~finally:(fun () -> try Unix.close sock with Unix.Unix_error _ -> ())
      (fun () ->
        Unix.connect sock (Unix.ADDR_INET (Unix.inet_addr_loopback, port));
        let request = Printf.sprintf "GET %s HTTP/1.1\r\nHost: localhost\r\n\r\n" path in
        ignore (Unix.write_substring sock request 0 (String.length request));
        (* The connection sits in the listener's backlog until the next
           poll — exactly how the driver's service loop drives it. *)
        Metrics_server.poll server;
        let buf = Buffer.create 1024 in
        let chunk = Bytes.create 4096 in
        let rec drain () =
          match Unix.read sock chunk 0 4096 with
          | 0 -> ()
          | n ->
              Buffer.add_subbytes buf chunk 0 n;
              drain ()
        in
        drain ();
        Buffer.contents buf)
  in
  let response = get "/metrics" in
  check Alcotest.bool "200 OK" true
    (String.length response > 12 && String.sub response 9 3 = "200");
  let marker = "\r\n\r\n" in
  let rec find_body i =
    if i + 4 > String.length response then None
    else if String.sub response i 4 = marker then Some (i + 4)
    else find_body (i + 1)
  in
  (match find_body 0 with
  | None -> Alcotest.fail "no header/body separator"
  | Some body_start -> (
      let body = String.sub response body_start (String.length response - body_start) in
      match Obs.Openmetrics.parse body with
      | Ok _ -> ()
      | Error msg -> Alcotest.failf "scraped body invalid: %s" msg));
  let missing = get "/nope" in
  check Alcotest.bool "404 for other paths" true
    (String.length missing > 12 && String.sub missing 9 3 = "404");
  Metrics_server.stop server

(* A port outside the TCP range must be rejected, not wrapped modulo 2^16
   into some other port that happens to bind. *)
let test_scrape_port_range () =
  List.iter
    (fun port ->
      Alcotest.check_raises
        (Printf.sprintf "port %d rejected" port)
        (Invalid_argument
           (Printf.sprintf "Metrics_server.start: port %d outside 0..65535" port))
        (fun () -> ignore (Metrics_server.start ~port ~content:(fun () -> "") ())))
    [ -1; 65536 ]

(* -- Tuner explainability ------------------------------------------------------ *)

let snapshot_with ~commits ~ro_commits ~aborts ~reads ~writes ~validation_fails =
  {
    Region_stats.empty_snapshot with
    Region_stats.s_commits = commits;
    s_ro_commits = ro_commits;
    s_aborts = aborts;
    s_reads = reads;
    s_writes = writes;
    s_validation_fails = validation_fails;
  }

let test_explain_visibility_switch () =
  (* Pin every other arm's thresholds out of reach so only the visibility
     rule can fire; then the decision and its explanation are forced. *)
  let config =
    {
      Tuning_policy.default_config with
      Tuning_policy.min_attempts = 10;
      update_ratio_hi = 0.25;
      wasted_validation_hi = 0.1;
      abort_rate_hi = 0.99;
      abort_rate_lo = 0.0;
      write_through_abort_lo = 0.0;
      ctl_abort_hi = 0.99;
      mv_ro_ratio_hi = 0.99;
    }
  in
  let obs =
    {
      Tuning_policy.delta =
        snapshot_with ~commits:800 ~ro_commits:80 ~aborts:50 ~reads:5000 ~writes:900
          ~validation_fails:150;
      current = Mode.default;
      tvars = 100_000;
    }
  in
  let decision, why = Tuning_policy.explain config obs in
  (match decision with
  | Tuning_policy.Switch mode ->
      check Alcotest.bool "switched to visible reads" true
        (mode.Mode.visibility = Mode.Visible)
  | Tuning_policy.Keep -> Alcotest.fail "expected a visibility switch");
  check Alcotest.int "attempts observed" 850 why.Tuning_policy.w_attempts;
  check Alcotest.bool "visible-reads rule in triggered" true
    (List.exists (fun m -> contains m "visible reads") why.Tuning_policy.w_triggered);
  check Alcotest.bool "alternatives recorded as rejected" true
    (why.Tuning_policy.w_rejected <> []);
  (* decide is fst . explain, always. *)
  check Alcotest.bool "decide consistent with explain" true
    (Tuning_policy.decide config obs = decision)

let test_explain_small_sample () =
  let config = Tuning_policy.default_config in
  let obs =
    { Tuning_policy.delta = Region_stats.empty_snapshot; current = Mode.default; tvars = 64 }
  in
  let decision, why = Tuning_policy.explain config obs in
  check Alcotest.bool "small sample keeps" true (decision = Tuning_policy.Keep);
  check Alcotest.bool "why says the sample was too small" true
    (List.exists (fun m -> contains m "sample too small") why.Tuning_policy.w_rejected);
  check Alcotest.bool "no rules fired" true (why.Tuning_policy.w_triggered = []);
  (* why_to_json is total and canonical. *)
  check Alcotest.string "why json stable"
    (Json.to_string (Tuning_policy.why_to_json why))
    (Json.to_string (Tuning_policy.why_to_json why))

(* -- Report rendering regressions (S1) ---------------------------------------- *)

let test_latency_table_empty_histograms () =
  (* A conflict-free single-worker run records commits but no aborts: the
     abort histogram is empty and must render as an explicit n/a row, not
     be dropped or crash (regression: Histogram.summary on count = 0). *)
  let system = System.create ~max_workers:4 () in
  let p = System.partition system "quiet" in
  let v = System.tvar p 0 in
  let tracer = Obs.Tracer.create () in
  Obs.Tracer.attach tracer (System.engine system);
  let txn = System.descriptor system ~worker_id:0 in
  for _ = 1 to 100 do
    System.atomically txn (fun t -> System.write t v (System.read t v + 1))
  done;
  Obs.Tracer.detach tracer;
  let rendered = Table.render (Obs.Report.latency_table tracer) in
  check Alcotest.bool "table rendered" true (String.length rendered > 0);
  check Alcotest.bool "empty histogram renders n/a" true (contains rendered "n/a")

let () =
  Alcotest.run "metrics"
    [
      ( "registry",
        [
          Alcotest.test_case "counter exact under 4 domains" `Quick
            test_counter_exact_under_domains;
          Alcotest.test_case "registration idempotent, kind clash raises" `Quick
            test_registration_idempotent;
          Alcotest.test_case "histogram stripes merge" `Quick test_histogram_merge;
        ] );
      ( "openmetrics",
        [
          Alcotest.test_case "render/parse round-trip" `Quick test_openmetrics_round_trip;
          Alcotest.test_case "malformed inputs rejected" `Quick
            test_openmetrics_rejects_malformed;
          Alcotest.test_case "render independent of registration order" `Quick
            test_openmetrics_order_independent;
        ] );
      ( "slo",
        [
          Alcotest.test_case "spec parsing" `Quick test_slo_parse;
          Alcotest.test_case "windows, violations and budget burn" `Quick
            test_slo_windows_and_burn;
        ] );
      ( "affinity",
        [
          Alcotest.test_case "sim runs are deterministic and byte-diffable" `Quick
            test_affinity_sim_deterministic;
          Alcotest.test_case "exact Region_stats reconciliation, 4 domains" `Quick
            test_affinity_reconciles_with_region_stats;
        ] );
      ( "plane",
        [
          Alcotest.test_case "mirrors, SLO gauges and exposition" `Quick
            test_plane_mirrors_and_slo;
          Alcotest.test_case "scrape endpoint serves valid OpenMetrics" `Quick
            test_scrape_endpoint;
          Alcotest.test_case "scrape port outside 0..65535 raises" `Quick
            test_scrape_port_range;
        ] );
      ( "explain",
        [
          Alcotest.test_case "visibility switch carries its why" `Quick
            test_explain_visibility_switch;
          Alcotest.test_case "small sample keeps with reason" `Quick test_explain_small_sample;
        ] );
      ( "report",
        [
          Alcotest.test_case "latency table renders empty histograms as n/a" `Quick
            test_latency_table_empty_histograms;
        ] );
    ]
