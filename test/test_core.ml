(* Tests for the partition runtime: partitions, registry, the tuning policy
   (table-driven decision cases) and the tuner loop. *)

open Partstm_stm
open Partstm_core

let check = Alcotest.check

let invisible g = Mode.make ~granularity_log2:g ()
let visible g = Mode.make ~visibility:Mode.Visible ~granularity_log2:g ()

let fresh_system () = System.create ()

(* -- Partition ------------------------------------------------------------- *)

let test_partition_identity () =
  let system = fresh_system () in
  let p =
    System.partition system "accounts" ~site:"bank.accounts" ~mode:(invisible 6) ~tunable:false
  in
  check Alcotest.string "name" "accounts" (Partition.name p);
  check Alcotest.string "site" "bank.accounts" (Partition.site p);
  check Alcotest.bool "mode" true (Mode.equal (invisible 6) (Partition.mode p));
  check Alcotest.bool "tunable" false (Partition.tunable p);
  Partition.set_tunable p true;
  check Alcotest.bool "tunable set" true (Partition.tunable p)

let test_partition_tvars_and_stats () =
  let system = fresh_system () in
  let p = System.partition system "p" in
  let v = Partition.tvar p 10 in
  check Alcotest.int "tvar count" 1 (Partition.tvar_count p);
  let txn = System.descriptor system ~worker_id:0 in
  System.atomically txn (fun t -> System.write t v (System.read t v + 1));
  let snap = Partition.snapshot p in
  check Alcotest.int "one commit" 1 snap.Region_stats.s_commits;
  check Alcotest.int "one read" 1 snap.Region_stats.s_reads;
  check Alcotest.int "one write" 1 snap.Region_stats.s_writes;
  check Alcotest.int "no ro commits" 0 snap.Region_stats.s_ro_commits

let test_partition_set_mode () =
  let system = fresh_system () in
  let p = System.partition system "p" ~mode:(invisible 10) in
  Partition.set_mode p (visible 2);
  check Alcotest.bool "switched" true (Mode.equal (visible 2) (Partition.mode p))

(* -- Registry -------------------------------------------------------------- *)

let test_registry_order_and_lookup () =
  let system = fresh_system () in
  let registry = System.registry system in
  let a = System.partition system "a" in
  let _b = System.partition system "b" in
  let c = System.partition system "c" in
  check Alcotest.int "length" 3 (Registry.length registry);
  check Alcotest.(list string) "registration order" [ "a"; "b"; "c" ]
    (List.map Partition.name (Registry.partitions registry));
  (match Registry.find_by_name registry "a" with
  | Some found -> check Alcotest.bool "found a" true (found == a)
  | None -> Alcotest.fail "a not found");
  check Alcotest.bool "missing" true (Registry.find_by_name registry "zzz" = None);
  ignore c

let test_registry_report_shares () =
  let system = fresh_system () in
  let p1 = System.partition system "busy" in
  let p2 = System.partition system "idle" in
  let v1 = Partition.tvar p1 0 and _v2 = Partition.tvar p2 0 in
  let txn = System.descriptor system ~worker_id:0 in
  for _ = 1 to 10 do
    System.atomically txn (fun t -> System.write t v1 (System.read t v1 + 1))
  done;
  let report = Registry.report (System.registry system) in
  check Alcotest.int "two rows" 2 (List.length report);
  let total_share = List.fold_left (fun acc row -> acc +. row.Registry.row_access_share) 0.0 report in
  check (Alcotest.float 1e-9) "shares sum to 1" 1.0 total_share;
  let busy = List.find (fun row -> row.Registry.row_name = "busy") report in
  check (Alcotest.float 1e-9) "busy gets all traffic" 1.0 busy.Registry.row_access_share

(* -- Tuning policy (table-driven) ------------------------------------------ *)

let snapshot ?(commits = 1000) ?(ro_commits = 0) ?(aborts = 0) ?(reads = 10_000) ?(writes = 1000)
    ?(lock_conflicts = 0) ?(reader_conflicts = 0) ?(validation_fails = 0) ?(extensions = 0)
    ?(ro_aborts = 0) () =
  {
    Region_stats.s_commits = commits;
    s_ro_commits = ro_commits;
    s_aborts = aborts;
    s_reads = reads;
    s_writes = writes;
    s_lock_conflicts = lock_conflicts;
    s_reader_conflicts = reader_conflicts;
    s_validation_fails = validation_fails;
    s_extensions = extensions;
    s_mode_switches = 0;
    s_ro_aborts = ro_aborts;
    s_mv_hist_reads = 0;
    s_ctl_commits = 0;
  }

let explain ?(tvars = 100_000) ?(mv_blocked = false) ~current delta =
  Tuning_policy.explain { Tuning_policy.delta; current; tvars; mv_blocked }

let decide ?tvars ?mv_blocked ~current delta =
  (explain ?tvars ?mv_blocked ~current delta).Tuning_policy.decision

let expect_keep name decision =
  match decision with
  | Tuning_policy.Keep -> ()
  | Tuning_policy.Switch m -> Alcotest.failf "%s: unexpected switch to %a" name Mode.pp m

let expect_switch name expected decision =
  match decision with
  | Tuning_policy.Switch m when Mode.equal m expected -> ()
  | Tuning_policy.Switch m -> Alcotest.failf "%s: switched to %a" name Mode.pp m
  | Tuning_policy.Keep -> Alcotest.failf "%s: kept" name

let test_policy_small_sample_keeps () =
  expect_keep "tiny sample"
    (decide ~current:(invisible 10) (snapshot ~commits:10 ~aborts:5 ~validation_fails:5 ()))

let test_policy_switch_to_visible () =
  (* Update-heavy and wasting work on failed validations. *)
  expect_switch "to visible" (visible 10)
    (decide ~current:(invisible 10)
       (snapshot ~commits:1000 ~ro_commits:300 ~aborts:400 ~validation_fails:250 ()))

let test_policy_no_visible_when_read_mostly () =
  (* Read-mostly with wasted validations must never go visible; the
     protocol arm instead moves it to multi-version, where read-only
     transactions stop validating altogether. *)
  match
    decide ~current:(invisible 10)
      (snapshot ~commits:1000 ~ro_commits:950 ~aborts:300 ~validation_fails:200 ())
  with
  | Tuning_policy.Switch m ->
      check Alcotest.bool "stays invisible" true (m.Mode.visibility = Mode.Invisible);
      check Alcotest.bool "multi-version" true (Protocol.is_multi_version m.Mode.protocol)
  | Tuning_policy.Keep -> Alcotest.fail "expected a multi-version switch"

let test_policy_no_visible_without_wasted_work () =
  (* aborts put the rate in the granularity dead zone so only the
     visibility rule is in play. *)
  expect_keep "no wasted work, stays invisible"
    (decide ~current:(invisible 10) (snapshot ~commits:1000 ~ro_commits:100 ~aborts:100 ()))

let test_policy_back_to_invisible () =
  expect_switch "back to invisible" (invisible 10)
    (decide ~current:(visible 10) (snapshot ~commits:1000 ~ro_commits:980 ~aborts:100 ()))

let test_policy_visible_hysteresis () =
  (* Update ratio between lo and hi: no flapping in either direction. *)
  let middling = snapshot ~commits:1000 ~ro_commits:850 ~aborts:100 () in
  expect_keep "visible stays" (decide ~current:(visible 10) middling);
  expect_keep "invisible stays" (decide ~current:(invisible 10) middling)

let test_policy_coarsen_small_hot_region () =
  (* A small, hot, update-heavy region coarsens AND moves to commit-time
     locking (it also satisfies the protocol arm's entry gate). *)
  expect_switch "coarsen"
    { (invisible 6) with Mode.protocol = Protocol.Commit_time_lock }
    (decide ~tvars:16 ~current:(invisible 10)
       (snapshot ~commits:1000 ~ro_commits:600 ~aborts:700 ~lock_conflicts:700 ~writes:4000 ()))

let test_policy_large_hot_region_refines () =
  (* A large region under the same pressure must NOT coarsen (that would
     serialize it); the dual rule refines it instead, chasing orec-aliasing
     false conflicts. *)
  expect_switch "refines instead of coarsening" (invisible 14)
    (decide ~tvars:100_000 ~current:(invisible 10)
       (snapshot ~commits:1000 ~ro_commits:600 ~aborts:700 ~lock_conflicts:700 ~writes:4000 ()))

let test_policy_no_coarsen_single_write_txns () =
  (* Single-write transactions gain nothing from a coarse table, so the
     granularity must not move; the commit-time-lock arm may still claim
     the small hot region. *)
  match
    decide ~tvars:16 ~current:(invisible 10)
      (snapshot ~commits:1000 ~ro_commits:600 ~aborts:700 ~lock_conflicts:700 ~writes:400 ())
  with
  | Tuning_policy.Keep -> ()
  | Tuning_policy.Switch m ->
      check Alcotest.int "granularity unchanged" 10 m.Mode.granularity_log2;
      check Alcotest.bool "only the protocol moved" true
        (Protocol.is_commit_time_lock m.Mode.protocol)

let test_policy_refine_when_quiet () =
  (* A quiet writing partition refines (and may also pick write-through —
     a separate knob asserted elsewhere). *)
  match decide ~current:(invisible 10) (snapshot ~commits:10_000 ~reads:1_000_000 ~aborts:0 ()) with
  | Tuning_policy.Switch m -> check Alcotest.int "refined" 14 m.Mode.granularity_log2
  | Tuning_policy.Keep -> Alcotest.fail "expected refinement"

let test_policy_refine_capped_by_traffic () =
  (* Tiny traffic: refinement is capped near 4x the observed accesses. *)
  match decide ~current:(invisible 4) (snapshot ~commits:500 ~reads:100 ~writes:20 ~aborts:0 ()) with
  | Tuning_policy.Switch m ->
      check Alcotest.bool "capped" true (m.Mode.granularity_log2 <= 10)
  | Tuning_policy.Keep -> ()

let test_policy_write_through_when_quiet_updates () =
  (* Writing partition with near-zero aborts: write-through pays off.
     (The same snapshot also triggers refinement; accept both knobs.) *)
  match
    decide ~current:(invisible 14)
      (snapshot ~commits:10_000 ~ro_commits:5_000 ~reads:10_000_000 ~writes:10_000 ~aborts:50 ())
  with
  | Tuning_policy.Switch m ->
      if m.Mode.update <> Mode.Write_through then
        Alcotest.failf "expected write-through, got %a" Mode.pp m
  | Tuning_policy.Keep -> Alcotest.fail "expected a switch to write-through"

let test_policy_write_back_under_contention () =
  expect_switch "back to write-back"
    { (invisible 10) with Mode.update = Mode.Write_back }
    (decide
       ~current:{ (invisible 10) with Mode.update = Mode.Write_through }
       (snapshot ~commits:1000 ~ro_commits:500 ~aborts:250 ()))

let test_policy_no_write_through_for_readonly () =
  (* A pure reader gains nothing from write-through. *)
  match
    decide ~current:(invisible 14)
      (snapshot ~commits:10_000 ~ro_commits:10_000 ~reads:10_000_000 ~writes:0 ~aborts:0 ())
  with
  | Tuning_policy.Switch m ->
      if m.Mode.update = Mode.Write_through then Alcotest.fail "switched a reader to write-through"
  | Tuning_policy.Keep -> ()

let test_policy_bounds_respected () =
  (* Already at the coarsest: no further coarsening (the protocol arm may
     still fire on the same pressure signal). *)
  (match
     decide ~tvars:16 ~current:(invisible 0)
       (snapshot ~commits:1000 ~ro_commits:600 ~aborts:700 ~lock_conflicts:700 ~writes:4000 ())
   with
  | Tuning_policy.Keep -> ()
  | Tuning_policy.Switch m -> check Alcotest.int "floor" 0 m.Mode.granularity_log2);
  (* Already at the finest (pure reader, so no other knob fires): no
     further refinement. *)
  expect_keep "ceiling"
    (decide ~current:(invisible 14)
       (snapshot ~commits:10_000 ~ro_commits:10_000 ~reads:10_000_000 ~writes:0 ~aborts:0 ()))

let mv8 g = { (invisible g) with Mode.protocol = Protocol.Multi_version { depth = 8 } }

(* Read-dominated (ro_ratio 0.95) with read-only attempts aborting:
   ro_wasted = 200 / 1300 = 0.154, far above [mv_wasted_hi]; the abort
   rate (0.23) sits inside the granularity and write-policy bands, so only
   the protocol can move. *)
let ro_waste () = snapshot ~commits:1000 ~ro_commits:950 ~aborts:300 ~ro_aborts:200 ()

(* The same mix with the waste gone: ro_wasted = 0 (abort rate 0.09, still
   inside every band). *)
let ro_quiet () = snapshot ~commits:1000 ~ro_commits:950 ~aborts:100 ()

let has_message needle messages =
  List.exists
    (fun m ->
      let n = String.length needle and l = String.length m in
      let rec at i = i + n <= l && (String.sub m i n = needle || at (i + 1)) in
      at 0)
    messages

let test_policy_mv_failed_trial_exits () =
  let { Tuning_policy.decision; why; _ } = explain ~current:(mv8 10) (ro_waste ()) in
  expect_switch "failed trial leaves multi-version" (invisible 10) decision;
  check Alcotest.bool "the trail says mv did not cut the waste" true
    (has_message "did not cut the waste" why.Tuning_policy.w_triggered)

let test_policy_mv_kept_when_it_pays () =
  let { Tuning_policy.decision; why; _ } = explain ~current:(mv8 10) (ro_quiet ()) in
  expect_keep "waste at or below the threshold keeps multi-version" decision;
  check Alcotest.bool "the trail says mv pays" true
    (has_message "(it pays)" why.Tuning_policy.w_rejected)

let test_policy_mv_blocked_stays_single_version () =
  expect_switch "unblocked: the waste enters multi-version" (mv8 10)
    (decide ~current:(invisible 10) (ro_waste ()));
  let { Tuning_policy.decision; why; _ } =
    explain ~mv_blocked:true ~current:(invisible 10) (ro_waste ())
  in
  expect_keep "blocked: stays single-version" decision;
  check Alcotest.bool "the rejection names the block" true
    (has_message "blocked after a failed trial" why.Tuning_policy.w_rejected)

(* A period of exactly [attempts] attempts with no waste at all
   (ro_wasted = 0, read-dominated). *)
let quiet attempts = snapshot ~commits:attempts ~ro_commits:(attempts * 19 / 20) ~aborts:0 ()

(* The block's four transitions, one period each: (case, block before,
   current mode, period, block after). *)
let test_policy_mv_block_lifecycle () =
  let min = Tuning_policy.min_attempts in
  List.iter
    (fun (name, blocked, current, delta, expected) ->
      let verdict = explain ~mv_blocked:blocked ~current delta in
      check Alcotest.bool name expected verdict.Tuning_policy.mv_blocked)
    [
      ("a failed-trial exit sets the block", false, mv8 10, ro_waste (), true);
      ("a wasteful period keeps it", true, invisible 10, ro_waste (), true);
      ("a quiet period of min_attempts attempts lifts it", true, invisible 10, quiet min, false);
      ("a smaller quiet period leaves it", true, invisible 10, quiet (min - 1), true);
    ]

(* Whatever it observes, the policy proposes only valid modes: every
   [Switch] passes [Mode.validate], and a granularity it moves lands in
   [Mode.granularity_min, granularity_hi] (a current granularity above
   that range is left alone, not clamped). *)
let prop_policy_proposals_valid =
  let gen =
    let open QCheck2.Gen in
    let+ commits = int_range 0 2000
    and+ ro_percent = int_range 0 100
    and+ aborts = int_range 0 2000
    and+ ro_abort_percent = int_range 0 100
    and+ validation_fails = int_range 0 1000
    and+ reads = int_range 0 100_000
    and+ writes = int_range 0 10_000
    and+ protocol =
      oneofl
        [ Protocol.Single_version; Protocol.Multi_version { depth = 8 }; Protocol.Commit_time_lock ]
    and+ visibility = oneofl [ Mode.Invisible; Mode.Visible ]
    and+ update = oneofl [ Mode.Write_back; Mode.Write_through ]
    and+ granularity_log2 = int_range Mode.granularity_min Mode.granularity_max
    and+ tvars = oneof [ int_range 1 300; int_range 1 1_000_000 ]
    and+ mv_blocked = bool in
    {
      Tuning_policy.delta =
        snapshot ~commits ~ro_commits:(commits * ro_percent / 100) ~aborts
          ~ro_aborts:(aborts * ro_abort_percent / 100) ~validation_fails ~reads ~writes ();
      current = Mode.with_protocol protocol (Mode.make ~visibility ~granularity_log2 ~update ());
      tvars;
      mv_blocked;
    }
  in
  let print o =
    let d = o.Tuning_policy.delta in
    Fmt.str
      "%a tvars=%d blocked=%b commits=%d ro=%d aborts=%d ro_aborts=%d val_fails=%d reads=%d writes=%d"
      Mode.pp o.Tuning_policy.current o.Tuning_policy.tvars o.Tuning_policy.mv_blocked
      d.Region_stats.s_commits d.Region_stats.s_ro_commits d.Region_stats.s_aborts
      d.Region_stats.s_ro_aborts d.Region_stats.s_validation_fails d.Region_stats.s_reads
      d.Region_stats.s_writes
  in
  let law obs =
    match (Tuning_policy.explain obs).Tuning_policy.decision with
    | Tuning_policy.Keep -> true
    | Tuning_policy.Switch m ->
        (match Mode.validate m with
        | () -> ()
        | exception Invalid_argument msg ->
            QCheck2.Test.fail_reportf "proposed %a: %s" Mode.pp m msg);
        let g = m.Mode.granularity_log2 in
        g = obs.Tuning_policy.current.Mode.granularity_log2
        || (g >= Mode.granularity_min && g <= Tuning_policy.granularity_hi)
  in
  QCheck_alcotest.to_alcotest
    (QCheck2.Test.make ~count:500 ~name:"proposals are valid modes" ~print gen law)

(* A fan-out partition: 100 update commits writing 268 tvars each (feed's
   timeline posts), beside read-only commits, at an abort rate of
   [aborts / (commits + aborts)].  No read-only attempt aborts, so only the
   granularity and write-policy arms are in play. *)
let fan_out ~commits ~aborts =
  snapshot ~commits ~ro_commits:(commits - 100) ~aborts ~writes:26_800 ()

let test_policy_fan_out_coarsens () =
  let { Tuning_policy.decision; why; _ } =
    explain ~current:(invisible 10) (fan_out ~commits:950 ~aborts:50)
  in
  expect_switch "abort 0.05 coarsens g10 to g6" (invisible 6) decision;
  check Alcotest.bool "the trail names the fan-out rule" true
    (has_message "fan-out" why.Tuning_policy.w_triggered)

let test_policy_fan_out_floor () =
  let { Tuning_policy.decision; why; _ } =
    explain ~current:(invisible 0) (fan_out ~commits:950 ~aborts:50)
  in
  expect_keep "g0 is kept" decision;
  check Alcotest.bool "the rejection names the floor" true
    (has_message "at the coarsest" why.Tuning_policy.w_rejected)

let test_policy_fan_out_band () =
  (* Abort rate 0.25: above the fan-out bound, below [abort_rate_hi]. *)
  expect_keep "no move inside the band"
    (decide ~current:(invisible 10) (fan_out ~commits:750 ~aborts:250))

let test_policy_fan_out_quiet_not_refined () =
  (* Abort rate 0.01 would refine any other partition; write-through may
     still fire on it. *)
  List.iter
    (fun g ->
      match decide ~current:(invisible g) (fan_out ~commits:990 ~aborts:10) with
      | Tuning_policy.Keep -> ()
      | Tuning_policy.Switch m ->
          if m.Mode.granularity_log2 > g then
            Alcotest.failf "g%d refined to %a" g Mode.pp m)
    [ 0; 6; 10 ]

(* On a steady workload the granularity settles: each proposed mode (and
   block) is fed back as the next period's current over 12 periods of the
   same observation, and the granularity reaches a fixed point without ever
   returning to a value it left.  Half the cases are fan-out partitions
   (64+ writes per update transaction) and half have a quiet abort rate, so
   the fan-out and quiet-refine rules meet at the floor. *)
let prop_policy_granularity_settles =
  let gen =
    let open QCheck2.Gen in
    let+ commits = int_range Tuning_policy.min_attempts 2000
    and+ ro_percent = int_range 0 99
    and+ abort_permille = oneof [ int_range 0 19; int_range 0 800 ]
    and+ writes_per_update = oneof [ int_range 0 8; int_range 60 400 ]
    and+ reads = int_range 0 100_000
    and+ protocol =
      oneofl
        [ Protocol.Single_version; Protocol.Multi_version { depth = 8 }; Protocol.Commit_time_lock ]
    and+ granularity_log2 = int_range Mode.granularity_min Mode.granularity_max
    and+ tvars = oneof [ int_range 1 300; int_range 1 1_000_000 ]
    and+ mv_blocked = bool in
    let ro_commits = commits * ro_percent / 100 in
    {
      Tuning_policy.delta =
        snapshot ~commits ~ro_commits
          ~aborts:(commits * abort_permille / 1000)
          ~reads
          ~writes:((commits - ro_commits) * writes_per_update)
          ();
      current = Mode.with_protocol protocol (Mode.make ~granularity_log2 ());
      tvars;
      mv_blocked;
    }
  in
  let print o =
    let d = o.Tuning_policy.delta in
    Fmt.str "%a tvars=%d blocked=%b commits=%d ro=%d aborts=%d reads=%d writes=%d" Mode.pp
      o.Tuning_policy.current o.Tuning_policy.tvars o.Tuning_policy.mv_blocked
      d.Region_stats.s_commits d.Region_stats.s_ro_commits d.Region_stats.s_aborts
      d.Region_stats.s_reads d.Region_stats.s_writes
  in
  let law obs =
    let rec go period obs seen =
      let g = obs.Tuning_policy.current.Mode.granularity_log2 in
      let { Tuning_policy.decision; mv_blocked; _ } = Tuning_policy.explain obs in
      let next = match decision with Tuning_policy.Keep -> obs.current | Switch m -> m in
      let g' = next.Mode.granularity_log2 in
      if g' <> g && List.mem g' seen then
        QCheck2.Test.fail_reportf "period %d: g%d returned to g%d (seen %s)" period g g'
          (String.concat " " (List.rev_map string_of_int seen));
      if period = 12 then g' = g
      else go (period + 1) { obs with current = next; mv_blocked } (g' :: seen)
    in
    go 1 obs [ obs.Tuning_policy.current.Mode.granularity_log2 ]
  in
  QCheck_alcotest.to_alcotest
    (QCheck2.Test.make ~count:500 ~name:"granularity settles on a steady workload" ~print gen law)

(* -- Tuner ------------------------------------------------------------------ *)

(* Drive an update-heavy contended partition with domains while stepping the
   tuner; it must react (switch at least once) and log the event. *)
let test_tuner_reacts_and_traces () =
  let system = fresh_system () in
  let p = System.partition system "hot" ~mode:(invisible 10) in
  let cells = Array.init 4 (fun _ -> Partition.tvar p 0) in
  let tuner = System.tuner system ~cooldown:0 in
  let stop = Atomic.make false in
  let domains =
    List.init 4 (fun w ->
        Domain.spawn (fun () ->
            let txn = System.descriptor system ~worker_id:w in
            let rng = Partstm_util.Rng.make w in
            while not (Atomic.get stop) do
              System.atomically txn (fun t ->
                  let i = Partstm_util.Rng.int rng 4 in
                  (* scan-and-update: the coarse-friendly shape *)
                  let sum = ref 0 in
                  Array.iter (fun c -> sum := !sum + System.read t c) cells;
                  System.write t cells.(i) (!sum + 1))
            done))
  in
  for _ = 1 to 30 do
    for _ = 1 to 50_000 do
      Domain.cpu_relax ()
    done;
    Tuner.step tuner
  done;
  Atomic.set stop true;
  List.iter Domain.join domains;
  check Alcotest.int "ticks" 30 (Tuner.ticks tuner);
  check Alcotest.bool "switched at least once" true (Tuner.switches tuner >= 1);
  let trace = Tuner.trace tuner in
  check Alcotest.int "trace length" (Tuner.switches tuner) (List.length trace);
  (match trace with
  | first :: _ ->
      check Alcotest.string "partition named" "hot" first.Tuner.ev_partition;
      check Alcotest.bool "tick recorded" true (first.Tuner.ev_tick >= 1)
  | [] -> Alcotest.fail "empty trace")

(* Force a deterministic switch by writing the policy-triggering counters
   straight into a stats shard (update-heavy + wasted validation work =>
   switch to visible reads), then check the tuner's bookkeeping: the
   partition's [mode_switches] statistic, the switches counter, the trace
   and the structured event listeners must all agree. *)
let test_tuner_forced_switch_accounting () =
  let system = fresh_system () in
  let p = System.partition system "forced" ~mode:(invisible 10) in
  let tuner = System.tuner system ~cooldown:0 in
  let events = ref [] in
  Tuner.on_event tuner (fun ev -> events := ev :: !events);
  Tuner.step tuner;
  (* baseline: entry created, no traffic *)
  check Alcotest.int "no switch yet" 0 (Tuner.switches tuner);
  check Alcotest.int "stat still zero" 0
    (Partition.snapshot p).Region_stats.s_mode_switches;
  let stripe = Region_stats.stripe (Partition.region p).Region.stats 0 in
  Region_stats.add_commits stripe 1000;
  Region_stats.add_ro_commits stripe 300;
  Region_stats.add_aborts stripe 400;
  Region_stats.add_validation_fails stripe 250;
  Tuner.step tuner;
  check Alcotest.int "one switch" 1 (Tuner.switches tuner);
  check Alcotest.int "mode_switches stat bumped" 1
    (Partition.snapshot p).Region_stats.s_mode_switches;
  check Alcotest.bool "now visible" true
    (Mode.equal (visible 10) (Partition.mode p));
  (match (Tuner.trace tuner, !events) with
  | [ traced ], [ heard ] ->
      check Alcotest.string "trace partition" "forced" traced.Tuner.ev_partition;
      check Alcotest.int "trace tick" 2 traced.Tuner.ev_tick;
      check Alcotest.bool "listener saw the same event" true (traced = heard)
  | trace, events ->
      Alcotest.failf "expected 1 trace event and 1 listener event, got %d and %d"
        (List.length trace) (List.length events));
  (* A further quiet step must not bump anything again. *)
  Tuner.step tuner;
  check Alcotest.int "still one switch" 1
    (Partition.snapshot p).Region_stats.s_mode_switches

let test_tuner_trace_capped () =
  let system = fresh_system () in
  let p = System.partition system "capped" ~mode:(invisible 10) in
  let tuner = System.tuner system ~cooldown:0 ~max_trace:3 in
  let stripe = Region_stats.stripe (Partition.region p).Region.stats 0 in
  Tuner.step tuner;
  (* Alternate the visible-switch and invisible-switch conditions so every
     step applies one switch. *)
  for i = 1 to 5 do
    if i mod 2 = 1 then begin
      Region_stats.add_commits stripe 1000;
      Region_stats.add_ro_commits stripe 300;
      Region_stats.add_aborts stripe 400;
      Region_stats.add_validation_fails stripe 250
    end
    else begin
      Region_stats.add_commits stripe 1000;
      Region_stats.add_ro_commits stripe 980;
      Region_stats.add_aborts stripe 100
    end;
    Tuner.step tuner
  done;
  check Alcotest.int "five switches" 5 (Tuner.switches tuner);
  check Alcotest.int "five stat bumps" 5 (Partition.snapshot p).Region_stats.s_mode_switches;
  check Alcotest.int "trace capped" 3 (List.length (Tuner.trace tuner));
  check Alcotest.int "dropped counted" 2 (Tuner.dropped_events tuner);
  (* The retained events are the newest ones. *)
  match List.rev (Tuner.trace tuner) with
  | newest :: _ -> check Alcotest.int "newest kept" 6 newest.Tuner.ev_tick
  | [] -> Alcotest.fail "empty trace"

(* The failed-trial exit and its block, driven through real ticks with
   injected per-period counts: the partition enters multi-version on
   read-only waste, leaves after one period in which the waste persisted,
   stays out while it keeps persisting, and re-enters only after one
   quiet period has lifted the block. *)
let test_tuner_mv_failed_trial_blocks_reentry () =
  let system = fresh_system () in
  let p = System.partition system "timelines" ~mode:(invisible 14) in
  let tuner = System.tuner system ~cooldown:0 in
  let stripe = Region_stats.stripe (Partition.region p).Region.stats 0 in
  let period ~wasted =
    Region_stats.add_commits stripe 1000;
    Region_stats.add_ro_commits stripe 950;
    Region_stats.add_reads stripe 10_000;
    Region_stats.add_writes stripe 1000;
    if wasted then begin
      Region_stats.add_aborts stripe 300;
      Region_stats.add_ro_aborts stripe 200
    end
    else Region_stats.add_aborts stripe 100;
    Tuner.step tuner
  in
  let in_mv () = Protocol.is_multi_version (Partition.mode p).Mode.protocol in
  Tuner.step tuner;
  period ~wasted:true;
  check Alcotest.bool "entered multi-version" true (in_mv ());
  period ~wasted:true;
  check Alcotest.bool "left after one failed trial" false (in_mv ());
  check Alcotest.bool "back to the same single-version mode" true
    (Mode.equal (invisible 14) (Partition.mode p));
  (match List.rev (Tuner.trace tuner) with
  | leave :: _ ->
      check Alcotest.bool "the exit event says why" true
        (has_message "did not cut the waste" leave.Tuner.ev_why.Tuning_policy.w_triggered)
  | [] -> Alcotest.fail "empty trace");
  for tick = 1 to 12 do
    period ~wasted:true;
    if in_mv () then Alcotest.failf "re-entered multi-version on blocked tick %d" tick
  done;
  check Alcotest.int "no switch while blocked" 2 (Tuner.switches tuner);
  (match Tuner.last_decisions tuner with
  | [ last ] ->
      check Alcotest.bool "the blocked decision names the block" true
        (has_message "blocked after a failed trial" last.Tuner.ld_why.Tuning_policy.w_rejected)
  | _ -> Alcotest.fail "expected one partition's last decision");
  period ~wasted:false;
  check Alcotest.bool "a quiet period does not enter" false (in_mv ());
  period ~wasted:true;
  check Alcotest.bool "re-entered after the quiet period" true (in_mv ());
  check Alcotest.int "three switches in all" 3 (Tuner.switches tuner)

let test_tuner_respects_tunable_flag () =
  let system = fresh_system () in
  let p = System.partition system "frozen" ~mode:(invisible 10) ~tunable:false in
  let v = Partition.tvar p 0 in
  let txn = System.descriptor system ~worker_id:0 in
  let tuner = System.tuner system in
  for _ = 1 to 5 do
    for _ = 1 to 500 do
      System.atomically txn (fun t -> System.write t v (System.read t v + 1))
    done;
    Tuner.step tuner
  done;
  check Alcotest.int "no switches" 0 (Tuner.switches tuner);
  check Alcotest.bool "mode unchanged" true (Mode.equal (invisible 10) (Partition.mode p))

let test_tuner_cooldown () =
  (* With a huge cooldown, at most one switch can ever happen. *)
  let system = fresh_system () in
  let _p = System.partition system "hot" ~mode:(invisible 10) in
  let tuner = System.tuner system ~cooldown:1000 in
  for _ = 1 to 10 do
    Tuner.step tuner
  done;
  check Alcotest.bool "at most one switch" true (Tuner.switches tuner <= 1)

let test_tuner_picks_up_new_partitions () =
  let system = fresh_system () in
  let tuner = System.tuner system in
  Tuner.step tuner;
  let _late = System.partition system "late" in
  Tuner.step tuner;
  (* No assertion beyond "does not crash and keeps ticking". *)
  check Alcotest.int "ticks" 2 (Tuner.ticks tuner)

(* -- System facade ---------------------------------------------------------- *)

let test_system_roundtrip () =
  let system = fresh_system () in
  let accounts = System.partition system "accounts" in
  let a = System.tvar accounts 100 and b = System.tvar accounts 0 in
  let txn = System.descriptor system ~worker_id:0 in
  System.atomically txn (fun t ->
      System.write t a (System.read t a - 10);
      System.write t b (System.read t b + 10));
  check Alcotest.int "a" 90 (Tvar.peek a);
  check Alcotest.int "b" 10 (Tvar.peek b);
  check Alcotest.int "registry" 1 (Registry.length (System.registry system))

let () =
  Alcotest.run "partstm_core"
    [
      ( "partition",
        [
          Alcotest.test_case "identity" `Quick test_partition_identity;
          Alcotest.test_case "tvars and stats" `Quick test_partition_tvars_and_stats;
          Alcotest.test_case "set mode" `Quick test_partition_set_mode;
        ] );
      ( "registry",
        [
          Alcotest.test_case "order and lookup" `Quick test_registry_order_and_lookup;
          Alcotest.test_case "report shares" `Quick test_registry_report_shares;
        ] );
      ( "tuning_policy",
        [
          Alcotest.test_case "small sample keeps" `Quick test_policy_small_sample_keeps;
          Alcotest.test_case "switch to visible" `Quick test_policy_switch_to_visible;
          Alcotest.test_case "read-mostly stays invisible" `Quick
            test_policy_no_visible_when_read_mostly;
          Alcotest.test_case "no waste, no switch" `Quick test_policy_no_visible_without_wasted_work;
          Alcotest.test_case "back to invisible" `Quick test_policy_back_to_invisible;
          Alcotest.test_case "hysteresis" `Quick test_policy_visible_hysteresis;
          Alcotest.test_case "coarsen small hot region" `Quick test_policy_coarsen_small_hot_region;
          Alcotest.test_case "large hot region refines" `Quick test_policy_large_hot_region_refines;
          Alcotest.test_case "no coarsen 1-write txns" `Quick test_policy_no_coarsen_single_write_txns;
          Alcotest.test_case "refine when quiet" `Quick test_policy_refine_when_quiet;
          Alcotest.test_case "refine capped" `Quick test_policy_refine_capped_by_traffic;
          Alcotest.test_case "write-through when quiet" `Quick
            test_policy_write_through_when_quiet_updates;
          Alcotest.test_case "write-back under contention" `Quick
            test_policy_write_back_under_contention;
          Alcotest.test_case "no write-through for readers" `Quick
            test_policy_no_write_through_for_readonly;
          Alcotest.test_case "bounds respected" `Quick test_policy_bounds_respected;
          Alcotest.test_case "mv failed trial exits" `Quick test_policy_mv_failed_trial_exits;
          Alcotest.test_case "mv kept when it pays" `Quick test_policy_mv_kept_when_it_pays;
          Alcotest.test_case "mv blocked stays sv" `Quick
            test_policy_mv_blocked_stays_single_version;
          Alcotest.test_case "mv block lifecycle" `Quick test_policy_mv_block_lifecycle;
          prop_policy_proposals_valid;
          Alcotest.test_case "fan-out coarsens" `Quick test_policy_fan_out_coarsens;
          Alcotest.test_case "fan-out kept at g0" `Quick test_policy_fan_out_floor;
          Alcotest.test_case "fan-out band keeps" `Quick test_policy_fan_out_band;
          Alcotest.test_case "quiet fan-out not refined" `Quick
            test_policy_fan_out_quiet_not_refined;
          prop_policy_granularity_settles;
        ] );
      ( "tuner",
        [
          Alcotest.test_case "reacts and traces" `Slow test_tuner_reacts_and_traces;
          Alcotest.test_case "forced switch accounting" `Quick test_tuner_forced_switch_accounting;
          Alcotest.test_case "trace capped" `Quick test_tuner_trace_capped;
          Alcotest.test_case "mv failed trial blocks re-entry" `Quick
            test_tuner_mv_failed_trial_blocks_reentry;
          Alcotest.test_case "respects tunable flag" `Quick test_tuner_respects_tunable_flag;
          Alcotest.test_case "cooldown" `Quick test_tuner_cooldown;
          Alcotest.test_case "picks up new partitions" `Quick test_tuner_picks_up_new_partitions;
        ] );
      ("system", [ Alcotest.test_case "roundtrip" `Quick test_system_roundtrip ]);
    ]
