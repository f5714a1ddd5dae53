(* Tests for the production metrics plane (DESIGN.md §8.3): its
   OpenMetrics exposition, rendered from the last sample of the
   partitions' [Region_stats] (exact under real domains, one series per
   partition, shards merged at read time), the exporter and its validating
   parser (round-trip), the SLO tracker's window/budget accounting, the
   worker × partition affinity matrix — including its exact reconciliation
   against the workload's own counts under 4 real domains and its
   attempt-only engine tap — the tuner's explainability surface, and the
   scrape endpoint. *)

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

(* -- Exposition helpers -------------------------------------------------------- *)

let parse_exposition text =
  match Obs.Openmetrics.parse text with
  | Ok families -> families
  | Error msg -> Alcotest.failf "exposition invalid: %s" msg

let samples_named families name =
  List.concat_map (fun f -> f.Obs.Openmetrics.f_samples) families
  |> List.filter (fun s -> s.Obs.Openmetrics.s_name = name)

(* The one sample of [name] labelled with [partition]. *)
let partition_value families name partition =
  match
    List.filter
      (fun s -> s.Obs.Openmetrics.s_labels = [ ("partition", partition) ])
      (samples_named families name)
  with
  | [ s ] -> s.Obs.Openmetrics.s_value
  | found -> Alcotest.failf "%s{partition=%S}: %d samples" name partition (List.length found)

let sample_value families name =
  match samples_named families name with
  | [ s ] -> s.Obs.Openmetrics.s_value
  | found -> Alcotest.failf "%s: %d samples" name (List.length found)

(* -- Plane exposition over the statistics it samples ------------------------- *)

(* Bank on four real domains with the plane attached: after the final
   sample (taken once the domains have joined) every exported counter is
   exactly the partition's [Region_stats] total. *)
let test_counter_exact_under_domains () =
  let system = System.create ~max_workers:12 () in
  let state = Bank.setup system ~strategy:Strategy.global_invisible Bank.default_config in
  let registry = System.registry system in
  let plane = Metrics_plane.create registry in
  Metrics_plane.attach plane;
  let result =
    Driver.run ~metrics:plane ~metrics_steps:4
      ~mode:(Driver.Domains { seconds = 0.2 })
      ~workers:4 (Bank.worker state)
  in
  Metrics_plane.detach plane;
  check Alcotest.bool "did some work" true (result.Driver.total_ops > 0);
  let families = parse_exposition (Metrics_plane.openmetrics plane) in
  List.iter
    (fun p ->
      let name = Partition.name p in
      let snapshot = Partition.snapshot p in
      List.iter
        (fun (field, get) ->
          check (Alcotest.float 0.0)
            (Printf.sprintf "%s %s exact" name field)
            (float_of_int (get snapshot))
            (partition_value families ("partstm_" ^ field ^ "_total") name))
        Region_stats.fields)
    (Registry.partitions registry)

(* A partition registered between two samples joins the exposition
   without duplicating anyone's series; a family declared twice is not
   valid OpenMetrics. *)
let test_registration_idempotent () =
  let system = System.create ~max_workers:4 () in
  let first = System.partition system "first" in
  let plane = Metrics_plane.create (System.registry system) in
  Metrics_plane.sample plane;
  let second = System.partition system "second" in
  let v = System.tvar second 0 in
  let txn = System.descriptor system ~worker_id:0 in
  System.atomically txn (fun t -> System.write t v 1);
  Metrics_plane.sample plane;
  let families = parse_exposition (Metrics_plane.openmetrics plane) in
  let series =
    List.concat_map
      (fun f ->
        List.map (fun s -> (s.Obs.Openmetrics.s_name, s.Obs.Openmetrics.s_labels)) f.Obs.Openmetrics.f_samples)
      families
  in
  check Alcotest.int "every (sample, labels) pair exported once" (List.length series)
    (List.length (List.sort_uniq compare series));
  List.iter
    (fun name ->
      check Alcotest.int (name ^ ": one series per partition") 2
        (List.length (samples_named families name)))
    [ "partstm_commits_total"; "partstm_abort_rate"; "partstm_granularity_log2" ];
  check (Alcotest.float 0.0) "first partition idle" 0.0
    (partition_value families "partstm_commits_total" (Partition.name first));
  check (Alcotest.float 0.0) "late partition counted from zero" 1.0
    (partition_value families "partstm_commits_total" (Partition.name second));
  match
    Obs.Openmetrics.parse
      "# TYPE partstm_commits counter\npartstm_commits_total{partition=\"a\"} 1\n\
       # TYPE partstm_commits counter\npartstm_commits_total{partition=\"b\"} 1\n# EOF\n"
  with
  | Ok _ -> Alcotest.fail "a family declared twice must not parse"
  | Error _ -> ()

(* Two descriptors land in different [Affinity] shards; the exposition
   merges the shards each time it is read, with no sample in between. *)
let test_histogram_merge () =
  let system = System.create ~max_workers:4 () in
  let v = System.tvar (System.partition system "lat") 0 in
  let plane = Metrics_plane.create (System.registry system) in
  let now = ref 0 in
  Metrics_plane.set_clock plane (fun () -> !now);
  Metrics_plane.attach plane;
  let commit worker ~cost =
    System.atomically (System.descriptor system ~worker_id:worker) (fun t ->
        now := !now + cost;
        System.write t v (System.read t v + 1))
  in
  commit 0 ~cost:3;
  commit 1 ~cost:1000;
  let read () = parse_exposition (Metrics_plane.openmetrics plane) in
  let families = read () in
  check (Alcotest.float 0.0) "both descriptors counted" 2.0
    (sample_value families "partstm_commit_latency_count");
  check (Alcotest.float 0.0) "latencies summed across shards" 1003.0
    (sample_value families "partstm_commit_latency_sum");
  commit 1 ~cost:1000;
  check (Alcotest.float 0.0) "merged again at the next read" 3.0
    (sample_value (read ()) "partstm_commit_latency_count");
  Metrics_plane.detach plane

(* -- OpenMetrics exporter ----------------------------------------------------- *)

let families_testable =
  let pp ppf (f : Obs.Openmetrics.family) = Fmt.pf ppf "%s" f.Obs.Openmetrics.f_name in
  Alcotest.testable (Fmt.list pp) ( = )

(* One family of each kind, the gauge's help exercising every escape. *)
let sample_families () =
  let sample name labels value =
    { Obs.Openmetrics.s_name = name; s_labels = labels; s_value = value }
  in
  [
    {
      Obs.Openmetrics.f_name = "om_gauge";
      f_kind = Obs.Openmetrics.Gauge;
      f_help = "with \"quotes\" and \\ backslash\nnewline";
      f_samples = [ sample "om_gauge" [] 2.5 ];
    };
    {
      Obs.Openmetrics.f_name = "om_lat";
      f_kind = Obs.Openmetrics.Histogram;
      f_help = "";
      f_samples =
        [
          sample "om_lat_bucket" [ ("le", "4") ] 1.0;
          sample "om_lat_bucket" [ ("le", "+Inf") ] 2.0;
          sample "om_lat_count" [] 2.0;
          sample "om_lat_sum" [] 303.0;
        ];
    };
    {
      Obs.Openmetrics.f_name = "om_ops";
      f_kind = Obs.Openmetrics.Counter;
      f_help = "a counter";
      f_samples = [ sample "om_ops_total" [ ("p", "alpha") ] 42.0 ];
    };
  ]

let test_openmetrics_round_trip () =
  let families = sample_families () in
  let text = Obs.Openmetrics.render families in
  check Alcotest.bool "terminated by # EOF" true
    (String.length text >= 6 && String.sub text (String.length text - 6) 6 = "# EOF\n");
  match Obs.Openmetrics.parse text with
  | Error msg -> Alcotest.failf "exporter output did not parse: %s" msg
  | Ok parsed ->
      check families_testable "parse (render families) = families" families parsed;
      (* Render is deterministic: same families, same bytes. *)
      check Alcotest.string "render is stable" text (Obs.Openmetrics.render families)

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
   registries registering the same partitions in opposite orders render
   identically (the artifact-diffability contract). *)
let test_openmetrics_order_independent () =
  let build names =
    let system = System.create ~max_workers:2 () in
    List.iter (fun name -> ignore (System.partition system name)) names;
    let plane = Metrics_plane.create (System.registry system) in
    Metrics_plane.sample plane;
    Metrics_plane.openmetrics plane
  in
  let a = build [ "zzz"; "mmm"; "aaa" ] in
  let b = build [ "aaa"; "mmm"; "zzz" ] in
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

(* An objective's name labels its exported series, so a second objective
   with the same name would hide one of them from a scraper. *)
let test_slo_repeated_name () =
  let slo = Obs.Slo.create () in
  let spec text = match Obs.Slo.parse text with Ok s -> s | Error m -> failwith m in
  let source () = Histogram.create () in
  ignore (Obs.Slo.add slo (spec "commit_p99<100") ~source);
  Alcotest.check_raises "repeated objective name raises"
    (Invalid_argument "Slo.add: objective commit_p99 given twice") (fun () ->
      ignore (Obs.Slo.add slo (spec "commit_p99<100000") ~source));
  check Alcotest.int "first objective kept alone" 1 (List.length (Obs.Slo.statuses slo))

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

(* The acceptance check: under 4 real domains the cells are exact, judged
   against the workload's own counts rather than [Region_stats] (the cells
   are read off the stripes, so comparing the two would be circular).
   Worker [w] commits exactly [per_worker] times on A, and on B exactly as
   many times as its own even draws.  Traffic before [attach] and after
   [detach] must not show: the cells count from the attach baseline and
   freeze at detach. *)
let test_affinity_reconciles_with_region_stats () =
  let workers = 4 in
  let system = System.create ~max_workers:(workers + 2) () in
  let pa = System.partition system "recon-a" in
  let pb = System.partition system "recon-b" in
  let slots_a = Array.init 8 (fun _ -> System.tvar pa 0) in
  let slots_b = Array.init 8 (fun _ -> System.tvar pb 0) in
  let bump_outside_window () =
    let txn = System.descriptor system ~worker_id:0 in
    for i = 0 to 9 do
      System.atomically txn (fun t ->
          System.write t slots_a.(i mod 8) 0;
          System.write t slots_b.(i mod 8) 0)
    done
  in
  bump_outside_window ();
  let plane = Metrics_plane.create (System.registry system) in
  let affinity = Metrics_plane.affinity plane in
  Metrics_plane.attach plane;
  let per_worker = 3_000 in
  let domains =
    List.init workers (fun id ->
        Domain.spawn (fun () ->
            let txn = System.descriptor system ~worker_id:id in
            let rng = Rng.make (0xACC + id) in
            let evens = ref 0 in
            for _ = 1 to per_worker do
              let i = Rng.int rng 8 in
              if i land 1 = 0 then incr evens;
              System.atomically txn (fun t ->
                  (* Every transaction touches partition A; half also touch
                     partition B — different totals per region, so a
                     bookkeeping mix-up cannot cancel out. *)
                  System.write t slots_a.(i) (System.read t slots_a.(i) + 1);
                  if i land 1 = 0 then
                    System.write t slots_b.(i) (System.read t slots_b.(i) + 1))
            done;
            !evens))
  in
  let evens = List.map Domain.join domains in
  Metrics_plane.detach plane;
  bump_outside_window ();
  let cells = Obs.Affinity.cells affinity in
  let cell worker (p : Partition.t) =
    let region = (Partition.region p).Region.id in
    match
      List.find_opt
        (fun (c : Obs.Affinity.cell_total) ->
          c.Obs.Affinity.ax_worker = worker && c.Obs.Affinity.ax_region = region)
        cells
    with
    | Some c -> c
    | None -> Alcotest.failf "worker %d: region %d missing from the matrix" worker region
  in
  let check_cell worker name p ~commits =
    let c = cell worker p in
    let label what = Printf.sprintf "worker %d %s on %s" worker what name in
    check Alcotest.int (label "commits") commits c.Obs.Affinity.ax_commits;
    (* One read and one write per attempt that gets that far: at least one
       per commit, at most one more per aborted attempt. *)
    List.iter
      (fun (what, n) ->
        check Alcotest.bool (label what) true
          (n >= commits && n <= commits + c.Obs.Affinity.ax_aborts))
      [ ("reads", c.Obs.Affinity.ax_reads); ("writes", c.Obs.Affinity.ax_writes) ]
  in
  List.iteri
    (fun worker evens ->
      check_cell worker "A" pa ~commits:per_worker;
      check_cell worker "B" pb ~commits:evens)
    evens;
  check Alcotest.int "only the four workers appear" (2 * workers) (List.length cells);
  (* Every attempt touched A first, so the tap's whole-attempt histograms
     see every commit and exactly A's aborts. *)
  check Alcotest.int "commit latency observed once per commit" (workers * per_worker)
    (Histogram.count (Obs.Affinity.commit_latency affinity));
  check Alcotest.int "abort latency observed once per aborted attempt"
    (List.fold_left (fun acc w -> acc + (cell w pa).Obs.Affinity.ax_aborts) 0
       (List.init workers Fun.id))
    (Histogram.count (Obs.Affinity.abort_latency affinity))

(* Only the checker's history watches accesses: the plane's tap and the
   tracer's watch attempts only, so with both attached the engine's access
   fan-out stays empty (no read or write hook fires) until a history
   attaches.  Beside a tracer the plane does not change what the tracer
   counts on a seeded simulated schedule. *)
let test_plane_leaves_access_hooks_alone () =
  let run ~with_plane =
    let system = System.create ~max_workers:12 () in
    let state = Bank.setup system ~strategy:Strategy.shared_invisible Bank.default_config in
    Registry.reset_stats (System.registry system);
    let engine = System.engine system in
    let plane = Metrics_plane.create (System.registry system) in
    let metrics = if with_plane then Some plane else None in
    if with_plane then begin
      Metrics_plane.attach plane;
      check Alcotest.bool "plane alone: no access fan-out" true (engine.Engine.access = None);
      check Alcotest.bool "plane alone: attempt hooks installed" true
        (engine.Engine.recorder <> None)
    end;
    let tracer = Obs.Tracer.create ~ring_capacity:1_000_000 () in
    Obs.Tracer.attach tracer engine;
    check Alcotest.bool "tracer watches no access" true (engine.Engine.access = None);
    ignore
      (Driver.run ~tracer ?metrics ~seed:5
         ~mode:(Driver.default_sim ~cycles:300_000 ())
         ~workers:4 (Bank.worker state));
    Partstm_check.History.attach (Partstm_check.History.create ()) engine;
    check Alcotest.bool "history watches accesses" true (engine.Engine.access <> None);
    Obs.Tracer.detach tracer;
    Option.iter Metrics_plane.detach metrics;
    let spans = Obs.Tracer.spans tracer in
    let sum f = List.fold_left (fun acc sp -> acc + f sp) 0 spans in
    let conflicts =
      List.fold_left
        (fun acc rs ->
          acc + rs.Obs.Tracer.rs_lock_fails + rs.Obs.Tracer.rs_reader_fails
          + rs.Obs.Tracer.rs_validation_fails)
        0 (Obs.Tracer.summary tracer)
    in
    ( Obs.Tracer.dropped_spans tracer,
      sum (fun sp -> sp.Obs.Tracer.sp_reads),
      sum (fun sp -> sp.Obs.Tracer.sp_writes),
      conflicts,
      Json.to_string (Obs.Tracer.to_json tracer) )
  in
  let dropped, reads, writes, conflicts, heatmap = run ~with_plane:false in
  let dropped', reads', writes', conflicts', heatmap' = run ~with_plane:true in
  check Alcotest.int "no span evicted" 0 (dropped + dropped');
  check Alcotest.bool "tracer saw reads" true (reads > 0);
  check Alcotest.bool "tracer saw conflicts" true (conflicts > 0);
  check Alcotest.int "reads" reads reads';
  check Alcotest.int "writes" writes writes';
  check Alcotest.int "conflicts" conflicts conflicts';
  check Alcotest.string "heatmap byte-identical" heatmap heatmap'

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

let request_metrics port path =
  let sock = Unix.socket Unix.PF_INET Unix.SOCK_STREAM 0 in
  Unix.connect sock (Unix.ADDR_INET (Unix.inet_addr_loopback, port));
  let request = Printf.sprintf "GET %s HTTP/1.1\r\nHost: localhost\r\n\r\n" path in
  ignore (Unix.write_substring sock request 0 (String.length request));
  sock

(* [poll] answers pending requests: [Metrics_server.poll] on a bare server,
   [Metrics_plane.poll_server] on a plane's endpoint. *)
let scrape ~port ~poll path =
  let sock = request_metrics port path in
  Fun.protect
    ~finally:(fun () -> try Unix.close sock with Unix.Unix_error _ -> ())
    (fun () ->
      (* The connection sits in the listener's backlog until the next
         poll — exactly how the driver's service loop drives it. *)
      poll ();
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

(* A scrape must answer 200 with a body the OpenMetrics parser accepts;
   returns the parsed body. *)
let check_valid_scrape ~port ~poll =
  let response = scrape ~port ~poll "/metrics" in
  check Alcotest.bool "200 OK" true
    (String.length response > 12 && String.sub response 9 3 = "200");
  let marker = "\r\n\r\n" in
  let rec find_body i =
    if i + 4 > String.length response then None
    else if String.sub response i 4 = marker then Some (i + 4)
    else find_body (i + 1)
  in
  match find_body 0 with
  | None -> Alcotest.fail "no header/body separator"
  | Some body_start -> (
      let body = String.sub response body_start (String.length response - body_start) in
      match Obs.Openmetrics.parse body with
      | Ok families -> families
      | Error msg -> Alcotest.failf "scraped body invalid: %s" msg)

let server_endpoint server =
  (Metrics_server.port server, fun () -> Metrics_server.poll server)

(* A plane serves its exposition before its first sample: the partition
   counters are there, and read 0. *)
let test_scrape_endpoint () =
  let system = System.create ~max_workers:4 () in
  let p = System.partition system "served" in
  let v = System.tvar p 0 in
  let txn = System.descriptor system ~worker_id:0 in
  System.atomically txn (fun t -> System.write t v 1);
  let plane = Metrics_plane.create (System.registry system) in
  let port = Metrics_plane.serve plane in
  let poll () = Metrics_plane.poll_server plane in
  check Alcotest.bool "ephemeral port assigned" true (port > 0);
  let families = check_valid_scrape ~port ~poll in
  check (Alcotest.float 0.0) "unsampled partition reads 0" 0.0
    (partition_value families "partstm_commits_total" "served");
  check (Alcotest.float 0.0) "no sample yet" 0.0
    (sample_value families "partstm_plane_samples_total");
  let missing = scrape ~port ~poll "/nope" in
  check Alcotest.bool "404 for other paths" true
    (String.length missing > 12 && String.sub missing 9 3 = "404");
  Metrics_plane.stop_server plane;
  check Alcotest.bool "server stopped" false (Metrics_plane.has_server plane)

(* A scraper that sends its request and hangs up before reading a large
   reply must cost that reply only: the write fails with EPIPE instead of
   SIGPIPE killing the process.  The server stays usable afterwards. *)
let test_scrape_hang_up () =
  let body = ref (String.make 1_000_000 '#') in
  let server = Metrics_server.start ~content:(fun () -> !body) () in
  let port, poll = server_endpoint server in
  Unix.close (request_metrics port "/metrics");
  poll ();
  body := Obs.Openmetrics.render (sample_families ());
  ignore (check_valid_scrape ~port ~poll);
  Metrics_server.stop server

(* A scraper that never reads a reply larger than the socket buffers must
   not hold [poll] past the send timeout.  A helper domain closes the
   stalled client after 2s, so without the timeout this test fails on the
   elapsed time instead of hanging. *)
let test_scrape_stalled_client () =
  let body = ref (String.make 4_000_000 '#') in
  let server = Metrics_server.start ~content:(fun () -> !body) () in
  let port, poll = server_endpoint server in
  let stalled = request_metrics port "/metrics" in
  let closer =
    Domain.spawn (fun () ->
        Unix.sleepf 2.0;
        Unix.close stalled)
  in
  let start = Unix.gettimeofday () in
  poll ();
  let elapsed = Unix.gettimeofday () -. start in
  Domain.join closer;
  check Alcotest.bool
    (Printf.sprintf "poll returned within 1s of a stalled scraper (took %.2fs)" elapsed)
    true (elapsed < 1.0);
  body := Obs.Openmetrics.render (sample_families ());
  ignore (check_valid_scrape ~port ~poll);
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
  (* Update-heavy (update ratio 0.9) with wasted validation (0.18), an
     abort rate (0.06) inside the granularity and write-policy bands, a
     large region (no commit-time locking) and few read-only commits (no
     multi-version): only the visibility rule can fire. *)
  let obs =
    {
      Tuning_policy.delta =
        snapshot_with ~commits:800 ~ro_commits:80 ~aborts:50 ~reads:5000 ~writes:900
          ~validation_fails:150;
      current = Mode.default;
      tvars = 100_000;
      mv_blocked = false;
    }
  in
  let { Tuning_policy.decision; why; _ } = Tuning_policy.explain obs in
  (match decision with
  | Tuning_policy.Switch mode ->
      check Alcotest.bool "switched to visible reads" true
        (mode.Mode.visibility = Mode.Visible)
  | Tuning_policy.Keep -> Alcotest.fail "expected a visibility switch");
  check Alcotest.int "attempts observed" 850 why.Tuning_policy.w_attempts;
  check Alcotest.bool "visible-reads rule in triggered" true
    (List.exists (fun m -> contains m "visible reads") why.Tuning_policy.w_triggered);
  check Alcotest.bool "alternatives recorded as rejected" true
    (why.Tuning_policy.w_rejected <> [])

let test_explain_small_sample () =
  let obs =
    {
      Tuning_policy.delta = Region_stats.empty_snapshot;
      current = Mode.default;
      tvars = 64;
      mv_blocked = false;
    }
  in
  let { Tuning_policy.decision; why; _ } = Tuning_policy.explain obs in
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
          Alcotest.test_case "repeated objective name raises" `Quick test_slo_repeated_name;
        ] );
      ( "affinity",
        [
          Alcotest.test_case "sim runs are deterministic and byte-diffable" `Quick
            test_affinity_sim_deterministic;
          Alcotest.test_case "exact Region_stats reconciliation, 4 domains" `Quick
            test_affinity_reconciles_with_region_stats;
          Alcotest.test_case "plane fires no access hook; tracer counts unchanged" `Quick
            test_plane_leaves_access_hooks_alone;
        ] );
      ( "plane",
        [
          Alcotest.test_case "mirrors, SLO gauges and exposition" `Quick
            test_plane_mirrors_and_slo;
          Alcotest.test_case "scrape endpoint serves valid OpenMetrics" `Quick
            test_scrape_endpoint;
          Alcotest.test_case "scrape port outside 0..65535 raises" `Quick
            test_scrape_port_range;
          Alcotest.test_case "scraper hang-up spares the process" `Quick test_scrape_hang_up;
          Alcotest.test_case "stalled scraper bounded by send timeout" `Quick
            test_scrape_stalled_client;
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
