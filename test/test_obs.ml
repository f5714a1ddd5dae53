(* Observability layer (lib/obs): engine tap fan-out, span tracer ring
   accounting and sampling determinism, Chrome trace_event export
   round-trip, reconciliation of the tracer's heatmap and abort histograms
   against the engine's own conflict counters and the tracer's abort
   count, and the mutation gate with a tracer attached. *)

open Partstm_stm
open Partstm_core
open Partstm_check
module Obs = Partstm_obs
module Sim = Partstm_simcore.Sim
module Sim_env = Partstm_simcore.Sim_env
module Json = Partstm_util.Json

let check = Alcotest.check

(* Run a checker scenario instance once under the deterministic simulator
   with observers attached to its engine. *)
let run_instance ?tracer (scenario : Scenario.t) =
  let inst = scenario.Scenario.make () in
  Option.iter
    (fun t ->
      Obs.Tracer.attach t inst.Scenario.engine;
      Obs.Tracer.set_clock t Sim.now)
    tracer;
  Sim_env.with_model (fun () -> ignore (Sim.run ~seed:0x0b5 inst.Scenario.bodies));
  Option.iter Obs.Tracer.detach tracer;
  inst

let count_events p history = List.length (List.filter p (History.events history))

(* -- Engine tap fan-out ------------------------------------------------------ *)

(* The scenario's history joins through [History.attach] and the tracer
   through [Tracer.attach]: two [Engine.add_tap] taps that must see the
   same run. *)
let fan_out_test =
  Alcotest.test_case "history and tracer taps observe the same run" `Quick (fun () ->
      let tracer = Obs.Tracer.create () in
      let inst = run_instance ~tracer Scenario.bank_invisible in
      let begins = count_events (function History.Begin _ -> true | _ -> false) inst.Scenario.history in
      let commits = count_events (function History.Commit _ -> true | _ -> false) inst.Scenario.history in
      let aborts = count_events (function History.Abort _ -> true | _ -> false) inst.Scenario.history in
      check Alcotest.bool "run did work" true (begins > 0);
      check Alcotest.int "attempts match history begins" begins (Obs.Tracer.attempts tracer);
      check Alcotest.int "commits match" commits (Obs.Tracer.committed tracer);
      check Alcotest.int "aborts match" aborts (Obs.Tracer.aborted tracer);
      check Alcotest.int "history tap outlives the tracer's" 1
        (List.length (Engine.taps inst.Scenario.engine)))

let add_remove_tap_test =
  Alcotest.test_case "add/remove composition" `Quick (fun () ->
      let system = System.create ~max_workers:2 () in
      let engine = System.engine system in
      let p = System.partition system "p" ~tunable:false in
      let v = System.tvar p 0 in
      let txn = System.descriptor system ~worker_id:0 in
      let bump counter =
        { Engine.null_recorder with Engine.rec_begin = (fun ~txn:_ ~worker:_ ~rv:_ -> incr counter) }
      in
      let a = ref 0 and b = ref 0 in
      let ha = Engine.add_tap engine (bump a) in
      let hb = Engine.add_tap engine (bump b) in
      System.atomically txn (fun t -> System.write t v 1);
      check Alcotest.int "tap a saw begin" 1 !a;
      check Alcotest.int "tap b saw begin" 1 !b;
      Engine.remove_tap engine hb;
      System.atomically txn (fun t -> System.write t v 2);
      check Alcotest.int "remaining tap still fires" 2 !a;
      check Alcotest.int "removed tap is silent" 1 !b;
      Engine.remove_tap engine ha;
      check Alcotest.bool "no taps left" true (Engine.taps engine = []);
      System.atomically txn (fun t -> System.write t v 3);
      check Alcotest.int "detached taps silent" 2 !a)

let history_attach_twice_test =
  Alcotest.test_case "history attached twice raises" `Quick (fun () ->
      let engine = System.engine (System.create ~max_workers:2 ()) in
      let history = History.create () in
      History.attach history engine;
      Alcotest.check_raises "second attach" (Invalid_argument "History.attach: already attached")
        (fun () -> History.attach history engine);
      check Alcotest.int "one tap attached" 1 (List.length (Engine.taps engine)))

(* The tracer takes each attempt's read/write totals and region from the
   descriptor, not from the access hooks: on a seeded multi-partition run
   they must equal what the history's access hook saw, attempt by attempt
   — the count of Read and Write events, and the region of the first one.
   An attempt that aborted before any read or write reached the history
   (a conflict on its first access) has no such event; only its counts are
   compared.  One partition per read path: visible, multi-version,
   commit-time-lock, and write-through invisible. *)
let every_read_path =
  Partstm_workloads.Strategy.Per_partition
    {
      assignments =
        [
          ("mixed-list", Mode.make ~visibility:Mode.Visible ());
          ("mixed-tree", Mode.make ~protocol:(Protocol.Multi_version { depth = 4 }) ());
          ("mixed-set", Mode.make ~protocol:Protocol.Commit_time_lock ());
          ("mixed-stats", Mode.make ~granularity_log2:0 ~update:Mode.Write_through ());
        ];
      fallback = Partstm_workloads.Strategy.invisible;
    }

let exact_totals_test =
  Alcotest.test_case "span totals equal the history's access events" `Quick (fun () ->
      let module Mixed = Partstm_workloads.Mixed in
      let module Driver = Partstm_harness.Driver in
      let system = System.create ~max_workers:8 () in
      let state = Mixed.setup system ~strategy:every_read_path Mixed.default_config in
      let engine = System.engine system in
      let history = History.create () in
      History.attach history engine;
      let tracer = Obs.Tracer.create ~ring_capacity:1_000_000 ~sample_every:1 () in
      Obs.Tracer.attach tracer engine;
      ignore
        (Driver.run ~tracer ~seed:17
           ~mode:(Driver.default_sim ~cycles:300_000 ())
           ~workers:4 (Mixed.worker state));
      Obs.Tracer.detach tracer;
      (* Per descriptor, newest first: each attempt's (reads, writes, first
         region, whether a later access left the first region). *)
      let attempts = Hashtbl.create 8 and current = Hashtbl.create 8 in
      let access txn ~region ~read =
        let r, w, first, spans = Hashtbl.find current txn in
        let first = if first < 0 then region else first in
        let r, w = if read then (r + 1, w) else (r, w + 1) in
        Hashtbl.replace current txn (r, w, first, spans || region <> first)
      in
      List.iter
        (function
          | History.Begin { txn; _ } -> Hashtbl.replace current txn (0, 0, -1, false)
          | History.Read { txn; region; _ } -> access txn ~region ~read:true
          | History.Write { txn; region; _ } -> access txn ~region ~read:false
          | History.Commit { txn; _ } | History.Abort { txn } ->
              let done_ = Option.value ~default:[] (Hashtbl.find_opt attempts txn) in
              Hashtbl.replace attempts txn (Hashtbl.find current txn :: done_)
          | History.Generation _ -> ())
        (History.events history);
      let all = Hashtbl.fold (fun _ l acc -> l @ acc) attempts [] in
      (* The run must exercise what the totals could get wrong. *)
      check Alcotest.bool "some attempt spans partitions" true
        (List.exists (fun (_, _, _, spans) -> spans) all);
      check Alcotest.bool "some attempt writes" true (List.exists (fun (_, w, _, _) -> w > 0) all);
      let spans = Obs.Tracer.spans tracer in
      check Alcotest.int "no span evicted" 0 (Obs.Tracer.dropped_spans tracer);
      check Alcotest.int "one span per history attempt" (List.length all) (List.length spans);
      Hashtbl.iter
        (fun txn expected ->
          let mine =
            List.filter (fun sp -> sp.Obs.Tracer.sp_txn = txn) spans
            |> List.sort (fun a b ->
                   Obs.Tracer.(compare (a.sp_chain, a.sp_attempt) (b.sp_chain, b.sp_attempt)))
          in
          check Alcotest.int "attempts per descriptor" (List.length expected) (List.length mine);
          List.iter2
            (fun (reads, writes, first, _) sp ->
              let label what =
                Obs.Tracer.(Printf.sprintf "txn %d chain %d.%d %s" txn sp.sp_chain sp.sp_attempt what)
              in
              check Alcotest.int (label "reads") reads sp.Obs.Tracer.sp_reads;
              check Alcotest.int (label "writes") writes sp.Obs.Tracer.sp_writes;
              if reads + writes > 0 then
                check Alcotest.int (label "region") first sp.Obs.Tracer.sp_region)
            (List.rev expected) mine)
        attempts)

(* -- Ring eviction accounting ------------------------------------------------ *)

let ring_eviction_test =
  Alcotest.test_case "ring eviction keeps exact counters" `Quick (fun () ->
      let system = System.create ~max_workers:2 () in
      let p = System.partition system "p" ~tunable:false in
      let v = System.tvar p 0 in
      let txn = System.descriptor system ~worker_id:0 in
      let tracer = Obs.Tracer.create ~ring_capacity:8 () in
      Obs.Tracer.attach tracer (System.engine system);
      for i = 1 to 50 do
        System.atomically txn (fun t -> System.write t v i)
      done;
      Obs.Tracer.detach tracer;
      check Alcotest.int "attempts exact" 50 (Obs.Tracer.attempts tracer);
      check Alcotest.int "committed exact" 50 (Obs.Tracer.committed tracer);
      check Alcotest.int "ring holds capacity" 8 (Obs.Tracer.kept_spans tracer);
      check Alcotest.int "evictions counted" 42 (Obs.Tracer.dropped_spans tracer);
      check Alcotest.int "spans returns kept" 8 (List.length (Obs.Tracer.spans tracer));
      (* The survivors are the newest attempts, in order. *)
      let attempts = List.map (fun sp -> sp.Obs.Tracer.sp_chain) (Obs.Tracer.spans tracer) in
      check Alcotest.bool "newest spans survive" true
        (List.sort compare attempts = attempts))

(* -- Sampling determinism ---------------------------------------------------- *)

let sampling_test =
  Alcotest.test_case "1-in-N sampling is deterministic, counters exact" `Quick (fun () ->
      let run_traced () =
        let tracer = Obs.Tracer.create ~sample_every:4 ~seed:0xfeed () in
        ignore (run_instance ~tracer Scenario.bank_invisible);
        tracer
      in
      let t1 = run_traced () and t2 = run_traced () in
      check Alcotest.int "attempts exact despite sampling" (Obs.Tracer.attempts t1)
        (Obs.Tracer.attempts t2);
      check Alcotest.bool "sampling kept a strict subset" true
        (Obs.Tracer.kept_spans t1 > 0
        && Obs.Tracer.kept_spans t1 < Obs.Tracer.attempts t1);
      let key sp =
        Obs.Tracer.(sp.sp_txn, sp.sp_chain, sp.sp_attempt, sp.sp_reads, sp.sp_writes)
      in
      check Alcotest.bool "identical sampled span sets" true
        (List.map key (Obs.Tracer.spans t1) = List.map key (Obs.Tracer.spans t2)))

(* -- Chrome export round-trip ------------------------------------------------ *)

let chrome_test =
  Alcotest.test_case "trace_event JSON round-trips, ts monotone per track" `Quick (fun () ->
      let tracer = Obs.Tracer.create () in
      let _ = run_instance ~tracer Scenario.bank_invisible in
      let rendered = Obs.Chrome.to_string tracer in
      match Json.of_string rendered with
      | Error e -> Alcotest.failf "export did not parse: %s" e
      | Ok json ->
          let events = Option.get (Json.to_list json) in
          check Alcotest.bool "non-empty" true (events <> []);
          let field name ev = Option.get (Json.member name ev) in
          let str name ev = Option.get (Json.to_str (field name ev)) in
          let num name ev = Option.get (Json.to_int (field name ev)) in
          List.iter
            (fun ev ->
              match str "ph" ev with
              | "M" | "X" | "i" -> ()
              | other -> Alcotest.failf "unexpected phase %S" other)
            events;
          let spans = List.filter (fun ev -> str "ph" ev = "X" && str "cat" ev = "txn") events in
          check Alcotest.int "one X event per kept span" (Obs.Tracer.kept_spans tracer)
            (List.length spans);
          let last = Hashtbl.create 8 in
          List.iter
            (fun ev ->
              let tid = num "tid" ev and ts = num "ts" ev in
              let prev = Option.value ~default:min_int (Hashtbl.find_opt last tid) in
              check Alcotest.bool "ts monotone within track" true (ts >= prev);
              Hashtbl.replace last tid ts)
            spans;
          (* Folded stacks cover every kept span's weight. *)
          let folded = Obs.Chrome.folded tracer in
          check Alcotest.bool "folded stacks non-empty" true (folded <> []);
          List.iter
            (fun (stack, weight) ->
              check Alcotest.bool "folded weight positive" true (weight > 0);
              check Alcotest.int "stack has partition;phase;outcome" 3
                (List.length (String.split_on_char ';' stack)))
            folded)

(* -- Contention heatmap reconciles with engine counters ---------------------- *)

(* Single-partition scenarios keep per-region attribution exact, so the
   heatmap totals must equal the engine's own [Region_stats] conflict
   counters, and the per-region abort histograms must count every abort
   the tracer saw. *)
let heatmap_reconciliation_test =
  Alcotest.test_case "heatmap totals equal engine conflict counters" `Quick (fun () ->
      List.iter
        (fun (label, mode) ->
          let fibers = 4 in
          let system = System.create ~max_workers:fibers () in
          let p = System.partition system "hot" ~mode ~tunable:false in
          let accounts = Array.init 3 (fun _ -> System.tvar p 100) in
          let tracer = Obs.Tracer.create () in
          Obs.Tracer.attach tracer (System.engine system);
          let body i _fiber =
            let txn = System.descriptor system ~worker_id:i in
            for k = 1 to 12 do
              let src = (i + k) mod 3 and dst = (i + k + 1) mod 3 in
              System.atomically txn (fun t ->
                  System.write t accounts.(src) (System.read t accounts.(src) - 1);
                  System.write t accounts.(dst) (System.read t accounts.(dst) + 1))
            done
          in
          Sim_env.with_model (fun () ->
              ignore (Sim.run ~seed:0xc0ffee (List.init fibers body)));
          Obs.Tracer.detach tracer;
          let stats = Partition.snapshot p in
          let sum f =
            List.fold_left (fun acc rs -> acc + f rs) 0 (Obs.Tracer.summary tracer)
          in
          check Alcotest.bool (label ^ ": conflicts occurred") true
            (stats.Region_stats.s_lock_conflicts + stats.Region_stats.s_reader_conflicts
             + stats.Region_stats.s_validation_fails
            > 0);
          check Alcotest.int (label ^ ": lock fails")
            stats.Region_stats.s_lock_conflicts
            (sum (fun rs -> rs.Obs.Tracer.rs_lock_fails));
          check Alcotest.int (label ^ ": reader waits")
            stats.Region_stats.s_reader_conflicts
            (sum (fun rs -> rs.Obs.Tracer.rs_reader_fails));
          check Alcotest.int (label ^ ": validation fails")
            stats.Region_stats.s_validation_fails
            (sum (fun rs -> rs.Obs.Tracer.rs_validation_fails));
          check Alcotest.int (label ^ ": abort histograms count every abort")
            (Obs.Tracer.aborted tracer)
            (sum (fun rs -> Partstm_util.Histogram.count rs.Obs.Tracer.rs_abort)))
        [
          ("invisible", Mode.make ());
          ("visible", Mode.make ~visibility:Mode.Visible ());
          (* A transfer that reads [src] from the history and then writes
             it aborts on the frozen snapshot: a validation failure. *)
          ("mv8", Mode.make ~protocol:(Protocol.Multi_version { depth = 8 }) ());
        ])

(* -- Mutation gate with a tracer attached ------------------------------------ *)

let traced_mutation_test =
  Alcotest.test_case "seeded bug still caught with tracer attached" `Slow (fun () ->
      let base = Scenario.for_bug Bug.Skip_commit_validation in
      let traced =
        {
          base with
          Scenario.make =
            (fun () ->
              let inst = base.Scenario.make () in
              let tracer = Obs.Tracer.create () in
              Obs.Tracer.attach tracer inst.Scenario.engine;
              inst);
        }
      in
      let outcome =
        Bug.with_bug Bug.Skip_commit_validation (fun () ->
            Explore.run ~seed:0xb06 ~budget:400 Explore.Random_walk traced)
      in
      match outcome with
      | Explore.Passed { schedules; _ } ->
          Alcotest.failf "tracer masked the seeded bug for %d schedules" schedules
      | Explore.Failed f ->
          check Alcotest.bool "failure carries anomalies" true (f.Explore.f_errors <> []))

(* -- Tuner decision bridging -------------------------------------------------- *)

let decision_test =
  Alcotest.test_case "recorded decisions are chronological" `Quick (fun () ->
      let tracer = Obs.Tracer.create () in
      Obs.Tracer.record_decision tracer ~partition:"p0" ~from_mode:"inv/g10/wb"
        ~to_mode:"vis/g10/wb";
      Obs.Tracer.record_decision tracer ~partition:"p1" ~from_mode:"inv/g10/wb"
        ~to_mode:"inv/g0/wb";
      match Obs.Tracer.decisions tracer with
      | [ d0; d1 ] ->
          check Alcotest.string "first partition" "p0" d0.Obs.Tracer.d_partition;
          check Alcotest.string "second partition" "p1" d1.Obs.Tracer.d_partition;
          check Alcotest.string "to mode" "inv/g0/wb" d1.Obs.Tracer.d_to
      | other -> Alcotest.failf "expected 2 decisions, got %d" (List.length other))

(* The driver bridges every applied tuner switch into the tracer; each
   bridged decision must name the modes exactly as the tuner's own log
   does, protocol included (intset-ll switches to multi-version here). *)
let bridged_decision_test =
  Alcotest.test_case "bridged decisions render modes like the tuner" `Quick (fun () ->
      let module Workload = Partstm_workloads.Workload in
      let module Driver = Partstm_harness.Driver in
      match Workload.get "intset-ll" with
      | Workload.Workload w ->
          let workers = 8 in
          let p = Workload.prepare ~workers ~strategy:Partstm_workloads.Strategy.tuned w.setup in
          let tuner = Option.get p.Workload.tuner in
          let tracer = Obs.Tracer.create ~sample_every:64 () in
          Obs.Tracer.attach tracer (System.engine p.Workload.system);
          ignore
            (Driver.run ~tuner ~tracer
               ~mode:(Driver.default_sim ~cycles:1_000_000 ())
               ~workers (w.worker p.Workload.state));
          Obs.Tracer.detach tracer;
          let events = Tuner.trace tuner in
          check Alcotest.bool "some switch changes the protocol" true
            (List.exists
               (fun (ev : Tuner.event) ->
                 not (Protocol.equal ev.Tuner.ev_from.Mode.protocol ev.Tuner.ev_to.Mode.protocol))
               events);
          let render (ev : Tuner.event) =
            ( ev.Tuner.ev_partition,
              Fmt.str "%a" Mode.pp ev.Tuner.ev_from,
              Fmt.str "%a" Mode.pp ev.Tuner.ev_to )
          in
          let bridged (d : Obs.Tracer.decision) =
            (d.Obs.Tracer.d_partition, d.Obs.Tracer.d_from, d.Obs.Tracer.d_to)
          in
          check
            Alcotest.(list (triple string string string))
            "one decision per switch, rendered with Mode.pp" (List.map render events)
            (List.map bridged (Obs.Tracer.decisions tracer)))

(* On domains the driver stamps spans from a monotonic nanosecond clock.
   The wall clock it used to read steps under NTP and resolves only
   microseconds, so most sub-microsecond transactions got a zero-length
   span. *)
let domains_clock_test =
  Alcotest.test_case "domains spans are timed in monotonic ns" `Quick (fun () ->
      let module Driver = Partstm_harness.Driver in
      let system = System.create ~max_workers:4 () in
      let p = System.partition system "clock" in
      let a = System.tvar p 1 and b = System.tvar p 2 in
      let tracer = Obs.Tracer.create ~ring_capacity:10_000 ~sample_every:1 () in
      Obs.Tracer.attach tracer (System.engine system);
      let worker (ctx : Driver.ctx) =
        let txn = System.descriptor system ~worker_id:ctx.Driver.worker_id in
        let ops = ref 0 in
        while not (ctx.Driver.should_stop ()) do
          ignore (System.atomically txn (fun t -> System.read t a + System.read t b));
          incr ops
        done;
        !ops
      in
      ignore (Driver.run ~tracer ~mode:(Driver.Domains { seconds = 0.1 }) ~workers:1 worker);
      Obs.Tracer.detach tracer;
      let spans = Obs.Tracer.spans tracer in
      let timed = List.filter (fun sp -> sp.Obs.Tracer.sp_end > sp.Obs.Tracer.sp_begin) spans in
      check Alcotest.bool "spans recorded" true (spans <> []);
      check Alcotest.bool "no span ends before it begins" true
        (List.for_all (fun sp -> sp.Obs.Tracer.sp_end >= sp.Obs.Tracer.sp_begin) spans);
      check Alcotest.bool
        (Printf.sprintf "%d of %d spans have a positive length" (List.length timed)
           (List.length spans))
        true
        (2 * List.length timed > List.length spans))

let () =
  Alcotest.run "partstm_obs"
    [
      ( "fan-out",
        [ fan_out_test; add_remove_tap_test; history_attach_twice_test; exact_totals_test ] );
      ( "tracer",
        [
          ring_eviction_test;
          sampling_test;
          decision_test;
          bridged_decision_test;
          domains_clock_test;
        ] );
      ("chrome", [ chrome_test ]);
      ("contention", [ heatmap_reconciliation_test ]);
      ("mutation", [ traced_mutation_test ]);
    ]
