(* Tests for the STM engine: word encoding, clock/quiesce machinery, lock
   tables, regions, and the transaction protocol (sequential semantics plus
   concurrency/serializability under real domains, in both read-visibility
   modes). *)

open Partstm_util
open Partstm_stm

let check = Alcotest.check
let qtest ?(count = 200) name gen law =
  QCheck_alcotest.to_alcotest (QCheck2.Test.make ~count ~name gen law)

let fresh_engine ?max_workers ?contention_manager ?max_attempts () =
  Engine.create ?max_workers ?contention_manager ?max_attempts ()

let invisible_mode g = Mode.make ~granularity_log2:g ()
let visible_mode g = Mode.make ~visibility:Mode.Visible ~granularity_log2:g ()
let write_through_mode g = Mode.make ~granularity_log2:g ~update:Mode.Write_through ()

(* -- Orec ------------------------------------------------------------------ *)

let test_orec_encoding () =
  let prev = Orec.make_version 1234 in
  check Alcotest.bool "unlocked" false (Orec.is_locked prev);
  check Alcotest.int "version" 1234 (Orec.version prev);
  check Alcotest.bool "version not locked_by" false (Orec.locked_by prev ~owner:1234);
  let locked = Orec.make_locked ~owner:42 ~prev in
  check Alcotest.bool "locked" true (Orec.is_locked locked);
  check Alcotest.int "owner" 42 (Orec.owner locked);
  check Alcotest.int "prev" prev (Orec.prev locked);
  check Alcotest.bool "locked_by" true (Orec.locked_by locked ~owner:42);
  check Alcotest.bool "not locked_by other" false (Orec.locked_by locked ~owner:41);
  (* The corners of the bit budget: neither field spills into the other
     or into the sign bit. *)
  let top = Orec.make_locked ~owner:Orec.max_owner ~prev:(Orec.make_version Orec.max_version) in
  check Alcotest.int "max owner" Orec.max_owner (Orec.owner top);
  check Alcotest.int "max version" Orec.max_version (Orec.version (Orec.prev top));
  check Alcotest.bool "non-negative" true (top > 0);
  let low = Orec.make_locked ~owner:0 ~prev:(Orec.make_version Orec.max_version) in
  check Alcotest.int "owner 0 under max version" 0 (Orec.owner low)

let prop_orec_roundtrip =
  qtest "orec version/owner roundtrip"
    QCheck2.Gen.(pair (int_range 0 Orec.max_owner) (int_range 0 Orec.max_version))
    (fun (owner, version) ->
      let prev = Orec.make_version version in
      let locked = Orec.make_locked ~owner ~prev in
      Orec.version prev = version
      && (not (Orec.is_locked prev))
      && Orec.is_locked locked
      && Orec.owner locked = owner
      && Orec.prev locked = prev)

(* -- Mode ------------------------------------------------------------------ *)

let test_mode_validate () =
  Mode.validate (Mode.make ~granularity_log2:0 ());
  Mode.validate (Mode.make ~visibility:Mode.Visible ~granularity_log2:Mode.granularity_max ());
  Alcotest.check_raises "too fine" (Invalid_argument "Mode.validate: granularity_log2 out of range")
    (fun () -> Mode.validate (Mode.make ~granularity_log2:99 ()));
  Alcotest.check_raises "negative" (Invalid_argument "Mode.validate: granularity_log2 out of range")
    (fun () -> Mode.validate (Mode.make ~granularity_log2:(-1) ()))

let test_mode_equal () =
  check Alcotest.bool "equal" true (Mode.equal Mode.default Mode.default);
  check Alcotest.bool "visibility differs" false (Mode.equal (invisible_mode 4) (visible_mode 4));
  check Alcotest.bool "granularity differs" false (Mode.equal (invisible_mode 4) (invisible_mode 5))

(* -- Engine ---------------------------------------------------------------- *)

let test_engine_clock () =
  let e = fresh_engine () in
  check Alcotest.int "initial" 0 (Engine.now e);
  check Alcotest.int "tick 1" 1 (Engine.tick e);
  check Alcotest.int "tick 2" 2 (Engine.tick e);
  check Alcotest.int "now tracks" 2 (Engine.now e)

(* Past the orec word's owner and version ranges the engine fails closed
   instead of handing out an id or a version that aliases an older one.
   The counters are set directly rather than driven there.  A commit that
   meets the exhausted clock rolls back: its lock is restored. *)
let test_engine_guards () =
  let e = fresh_engine () in
  Atomic.set e.Engine.descriptor_counter Orec.max_owner;
  check Alcotest.int "last owner id" Orec.max_owner (Engine.next_descriptor_id e);
  let ids_exhausted = Failure "Engine.next_descriptor_id: descriptor ids exhausted" in
  Alcotest.check_raises "owner ids exhausted" ids_exhausted (fun () ->
      ignore (Engine.next_descriptor_id e));
  Alcotest.check_raises "no descriptor past them" ids_exhausted (fun () ->
      ignore (Txn.create e ~worker_id:0));
  let e = fresh_engine () in
  let r = Region.create e ~name:"r" () in
  let a = Tvar.make r 1 in
  let txn = Txn.create e ~worker_id:0 in
  Atomic.set e.Engine.clock (Orec.max_version - 1);
  check Alcotest.int "last version" Orec.max_version (Engine.tick e);
  let clock_exhausted = Failure "Engine.tick: version clock exhausted" in
  Alcotest.check_raises "clock exhausted" clock_exhausted (fun () -> ignore (Engine.tick e));
  let table = r.Region.config.Region.table in
  let words = Array.map Atomic.get table.Lock_table.words in
  Alcotest.check_raises "commit fails closed" clock_exhausted (fun () ->
      Txn.atomically txn (fun t -> Txn.write t a 2));
  check Alcotest.int "value kept" 1 (Tvar.peek a);
  check Alcotest.(array int) "orec words restored" words
    (Array.map Atomic.get table.Lock_table.words)

let test_engine_ids_unique () =
  let e = fresh_engine () in
  let ids = List.init 100 (fun _ -> Engine.next_tvar_id e) in
  check Alcotest.int "distinct" 100 (List.length (List.sort_uniq compare ids))

(* Each worker id registers on its own slot; [inflight] sums them, packed
   or padded alike. *)
let test_engine_enter_leave () =
  List.iter
    (fun padded ->
      let e = Engine.create ~max_workers:4 ~padded () in
      check Alcotest.int "idle" 0 (Engine.inflight e);
      Engine.enter e ~worker:0;
      Engine.enter e ~worker:3;
      Engine.enter e ~worker:3;
      Engine.enter e ~worker:1;
      check Alcotest.int "slots add up" 4 (Engine.inflight e);
      check Alcotest.int "worker 3's slot" 2 (Atomic.get e.Engine.inflight_slots.(3));
      Engine.leave e ~worker:3;
      Engine.leave e ~worker:0;
      check Alcotest.int "two left" 2 (Engine.inflight e);
      check Alcotest.int "worker 0 idle" 0 (Atomic.get e.Engine.inflight_slots.(0));
      Engine.leave e ~worker:1;
      Engine.leave e ~worker:3;
      check Alcotest.int "drained" 0 (Engine.inflight e))
    [ true; false ]

let test_engine_quiesce () =
  let e = fresh_engine () in
  let observed = ref (-1) in
  let result =
    Engine.quiesce e (fun () ->
        observed := Engine.inflight e;
        check Alcotest.bool "frozen during" true (Engine.is_frozen e);
        17)
  in
  check Alcotest.int "result" 17 result;
  check Alcotest.int "no txn during quiesce" 0 !observed;
  check Alcotest.bool "unfrozen after" false (Engine.is_frozen e);
  (* Unfreezes even when the body raises. *)
  (try Engine.quiesce e (fun () -> raise Exit) with Exit -> ());
  check Alcotest.bool "unfrozen after exn" false (Engine.is_frozen e)

(* Two transactions in flight, on the first and the last worker slot: the
   quiesce must wait for both. *)
let test_engine_quiesce_waits_for_inflight () =
  let e = fresh_engine () in
  let last = e.Engine.max_workers - 1 in
  let release = Atomic.make false in
  Engine.enter e ~worker:0;
  Engine.enter e ~worker:last;
  let worker =
    Domain.spawn (fun () ->
        while not (Atomic.get release) do
          Domain.cpu_relax ()
        done;
        Engine.leave e ~worker:0)
  in
  let quiesced = Atomic.make false in
  let quiescer =
    Domain.spawn (fun () ->
        Engine.quiesce e (fun () -> Atomic.set quiesced true))
  in
  (* Give the quiescer a moment: it must not finish while we are in flight. *)
  for _ = 1 to 100_000 do
    Domain.cpu_relax ()
  done;
  check Alcotest.bool "blocked on in-flight txn" false (Atomic.get quiesced);
  Atomic.set release true;
  Domain.join worker;
  for _ = 1 to 100_000 do
    Domain.cpu_relax ()
  done;
  check Alcotest.bool "blocked on the last worker's txn" false (Atomic.get quiesced);
  Engine.leave e ~worker:last;
  Domain.join quiescer;
  check Alcotest.bool "completed after drain" true (Atomic.get quiesced)

(* -- Lock table ------------------------------------------------------------ *)

let test_lock_table_basics () =
  let t = Lock_table.create ~padded:true ~clock_now:5 ~granularity_log2:4 in
  check Alcotest.int "slots" 16 (Lock_table.slots t);
  check Alcotest.int "initial version" (Orec.make_version 5) (Atomic.get (Lock_table.word t 0));
  check Alcotest.int "no readers" 0 (Lock_table.readers_total t);
  check Alcotest.int "no locks" 0 (Lock_table.locked_slots t)

let test_lock_table_whole_region () =
  let t = Lock_table.create ~padded:true ~clock_now:0 ~granularity_log2:0 in
  check Alcotest.int "one slot" 1 (Lock_table.slots t);
  for i = 0 to 100 do
    check Alcotest.int "all ids map to slot 0" 0 (Lock_table.slot_of_id t i)
  done

let prop_lock_table_slot_in_range =
  qtest "slot_of_id in range"
    QCheck2.Gen.(pair (int_range 0 12) (int_range 0 1_000_000))
    (fun (g, id) ->
      (* Alternate padded/boxed representations: slot mapping must not
         depend on the memory layout. *)
      let t = Lock_table.create ~padded:(id mod 2 = 0) ~clock_now:0 ~granularity_log2:g in
      let slot = Lock_table.slot_of_id t id in
      slot >= 0 && slot < Lock_table.slots t)

(* -- Region ---------------------------------------------------------------- *)

let test_region_mode_and_reconfigure () =
  let e = fresh_engine () in
  let r = Region.create e ~name:"r" ~mode:(invisible_mode 4) () in
  check Alcotest.bool "initial mode" true (Mode.equal (Region.mode r) (invisible_mode 4));
  let table r = r.Region.config.Region.table in
  let table_before = table r in
  Region.reconfigure r (visible_mode 4);
  check Alcotest.bool "visibility switched" true (Mode.equal (Region.mode r) (visible_mode 4));
  check Alcotest.bool "table kept (same granularity)" true (table_before == table r);
  Region.reconfigure r (visible_mode 8);
  check Alcotest.bool "granularity switched" true (Mode.equal (Region.mode r) (visible_mode 8));
  check Alcotest.bool "table swapped" false (table_before == table r);
  (* Only a protocol change opens a new multi-version period. *)
  let epoch r = r.Region.config.Region.mv_epoch in
  check Alcotest.int "epoch kept across visibility and granularity" 0 (epoch r);
  let mv8 = Mode.make ~granularity_log2:8 ~protocol:(Protocol.Multi_version { depth = 8 }) () in
  Region.reconfigure r mv8;
  check Alcotest.int "protocol change bumps the epoch" 1 (epoch r);
  check Alcotest.int "mv depth cached" 8 r.Region.config.Region.mv_depth;
  Region.reconfigure r mv8;
  check Alcotest.int "same protocol keeps it" 1 (epoch r)

let test_region_tvar_count () =
  let e = fresh_engine () in
  let r = Region.create e ~name:"r" () in
  check Alcotest.int "empty" 0 (Region.tvar_count r);
  let _ = Tvar.make r 0 and _ = Tvar.make r 0 in
  check Alcotest.int "two" 2 (Region.tvar_count r)

(* -- Tvar layout ------------------------------------------------------------- *)

(* A tvar is one heap block.  The committed value is field 0, the field
   the engine's atomic view of the record addresses; moving any other
   field there, or boxing the value again, fails this test. *)
let tvar_fields = 6 (* cell, id, region, pending, pending_owner, mv *)

let test_tvar_layout () =
  let e = fresh_engine () in
  let r = Region.create e ~name:"r" () in
  let initial = [ "initial" ] in
  let tv = Tvar.make r initial in
  let id = Tvar.id tv in
  check Alcotest.bool "make stores the value in field 0" true
    (Obj.field (Obj.repr tv) 0 == Obj.repr initial);
  check Alcotest.bool "peek reads it" true (Tvar.peek tv == initial);
  let v = [ String.make 3 'v' ] in
  Tvar.poke tv v;
  check Alcotest.bool "poke writes field 0" true (Obj.field (Obj.repr tv) 0 == Obj.repr v);
  check Alcotest.bool "peek reads the poked value" true (Tvar.peek tv == v);
  check Alcotest.int "poke leaves the id" id (Tvar.id tv);
  check Alcotest.bool "poke leaves the region" true (Tvar.region tv == r);
  check Alcotest.bool "poke leaves the pending value" true (tv.Tvar.pending == initial);
  check Alcotest.bool "poke leaves the mv state" true (tv.Tvar.mv == Mv_history.initial);
  check Alcotest.int "one block of the record's fields" tvar_fields (Obj.size (Obj.repr tv));
  check Alcotest.int "record tag" 0 (Obj.tag (Obj.repr tv))

(* [Tvar.make] allocates its record and nothing else: [tvar_fields] words
   plus the header.  Several makes in a row, so that a stray box per tvar
   could not hide in rounding. *)
let test_tvar_make_one_block () =
  let e = fresh_engine () in
  let r = Region.create e ~name:"r" () in
  let n = 100 in
  let keep = Array.make n (Tvar.make r 0) in
  let before = Gc.minor_words () in
  for i = 0 to n - 1 do
    keep.(i) <- Tvar.make r i
  done;
  let words = Gc.minor_words () -. before in
  check (Alcotest.float 0.) "minor words per make" (float_of_int (tvar_fields + 1))
    (words /. float_of_int n);
  check Alcotest.int "every tvar kept" (n - 1) (Tvar.peek keep.(n - 1))

(* -- Region stats ---------------------------------------------------------- *)

let test_region_stats_snapshot_diff () =
  let stats = Region_stats.create ~max_workers:4 in
  let s0 = Region_stats.stripe stats 0 and s3 = Region_stats.stripe stats 3 in
  Region_stats.add_commits s0 5;
  Region_stats.add_reads s0 10;
  Region_stats.add_commits s3 2;
  Region_stats.add_aborts s3 1;
  let snap = Region_stats.snapshot stats in
  check Alcotest.int "commits summed" 7 snap.Region_stats.s_commits;
  check Alcotest.int "aborts summed" 1 snap.Region_stats.s_aborts;
  check Alcotest.int "attempts" 8 (Region_stats.attempts snap);
  check (Alcotest.float 1e-9) "abort rate" 0.125 (Region_stats.abort_rate snap);
  Region_stats.add_commits s0 4;
  let diff = Region_stats.diff ~current:(Region_stats.snapshot stats) ~previous:snap in
  check Alcotest.int "diff commits" 4 diff.Region_stats.s_commits;
  Region_stats.reset stats;
  check Alcotest.int "reset" 0 (Region_stats.snapshot stats).Region_stats.s_commits

let test_region_stats_ratios () =
  let snap =
    {
      Region_stats.empty_snapshot with
      Region_stats.s_commits = 10;
      s_ro_commits = 4;
      s_reads = 30;
      s_writes = 10;
    }
  in
  check (Alcotest.float 1e-9) "update ratio" 0.6 (Region_stats.update_txn_ratio snap);
  check (Alcotest.float 1e-9) "write ratio" 0.25 (Region_stats.write_ratio snap);
  check (Alcotest.float 1e-9) "idle abort rate" 0.0
    (Region_stats.abort_rate Region_stats.empty_snapshot)

(* Every counter field must survive snapshot -> diff -> re-add; exercised
   through the canonical [fields] list so a newly added counter cannot be
   forgotten in [snapshot]/[diff] without failing here. *)
let test_region_stats_diff_roundtrip () =
  let stats = Region_stats.create ~max_workers:3 in
  let fill stripe base =
    Region_stats.add_commits stripe base;
    Region_stats.add_ro_commits stripe (base + 1);
    Region_stats.add_aborts stripe (base + 2);
    Region_stats.add_reads stripe (base + 3);
    Region_stats.add_writes stripe (base + 4);
    Region_stats.add_lock_conflicts stripe (base + 5);
    Region_stats.add_reader_conflicts stripe (base + 6);
    Region_stats.add_validation_fails stripe (base + 7);
    Region_stats.add_extensions stripe (base + 8);
    Region_stats.add_mode_switches stripe (base + 9);
    Region_stats.add_ro_aborts stripe (base + 10);
    Region_stats.add_mv_hist_reads stripe (base + 11);
    Region_stats.add_ctl_commits stripe (base + 12)
  in
  fill (Region_stats.stripe stats 0) 10;
  fill (Region_stats.stripe stats 2) 100;
  let previous = Region_stats.snapshot stats in
  (* Each field must see the sum of both written stripes. *)
  List.iteri
    (fun i (name, get) -> check Alcotest.int name ((10 + i) + (100 + i)) (get previous))
    Region_stats.fields;
  fill (Region_stats.stripe stats 1) 1000;
  let current = Region_stats.snapshot stats in
  let delta = Region_stats.diff ~current ~previous in
  List.iteri
    (fun i (name, get) ->
      check Alcotest.int ("delta " ^ name) (1000 + i) (get delta);
      check Alcotest.int ("re-add " ^ name) (get current) (get previous + get delta))
    Region_stats.fields;
  check Alcotest.int "diff with self is zero" 0
    (List.fold_left
       (fun acc (_, get) -> acc + abs (get (Region_stats.diff ~current ~previous:current)))
       0 Region_stats.fields)

let test_region_stats_record_mode_switch () =
  let stats = Region_stats.create ~max_workers:4 in
  check Alcotest.int "starts at zero" 0 (Region_stats.snapshot stats).Region_stats.s_mode_switches;
  Region_stats.record_mode_switch stats;
  Region_stats.record_mode_switch stats;
  check Alcotest.int "counted" 2 (Region_stats.snapshot stats).Region_stats.s_mode_switches;
  Region_stats.reset stats;
  check Alcotest.int "reset clears" 0
    (Region_stats.snapshot stats).Region_stats.s_mode_switches

(* Plain [Region.reconfigure] is not a tuner switch: only the tuner
   accounts switches (see Tuner tests in test_core). *)
let test_region_reconfigure_not_counted () =
  let engine = fresh_engine () in
  let region = Region.create engine ~name:"r" () in
  Region.reconfigure region (visible_mode 4);
  check Alcotest.int "no switch recorded" 0
    (Region_stats.snapshot region.Region.stats).Region_stats.s_mode_switches

(* -- Contention managers --------------------------------------------------- *)

let test_cm_delay_runs () =
  let rng = Rng.make 1 in
  List.iter
    (fun cm ->
      Cm.delay cm rng ~attempt:1;
      Cm.delay cm rng ~attempt:10;
      Cm.delay cm rng ~attempt:100)
    [ Cm.Suicide; Cm.Backoff { min_delay = 1; max_delay = 8 }; Cm.Constant 4 ]

let test_cm_to_string () =
  check Alcotest.string "suicide" "suicide" (Cm.to_string Cm.Suicide);
  check Alcotest.string "constant" "constant(4)" (Cm.to_string (Cm.Constant 4))

let test_cm_smart_constructors () =
  Alcotest.check_raises "min_delay zero"
    (Invalid_argument "Cm.backoff: min_delay must be positive") (fun () ->
      ignore (Cm.backoff ~min_delay:0 ~max_delay:8));
  Alcotest.check_raises "min_delay negative"
    (Invalid_argument "Cm.backoff: min_delay must be positive") (fun () ->
      ignore (Cm.backoff ~min_delay:(-3) ~max_delay:8));
  Alcotest.check_raises "max below min"
    (Invalid_argument "Cm.backoff: max_delay < min_delay") (fun () ->
      ignore (Cm.backoff ~min_delay:8 ~max_delay:4));
  Alcotest.check_raises "negative constant" (Invalid_argument "Cm.constant: negative delay")
    (fun () -> ignore (Cm.constant (-1)));
  check Alcotest.bool "degenerate backoff ok" true
    (Cm.backoff ~min_delay:1 ~max_delay:1 = Cm.Backoff { min_delay = 1; max_delay = 1 });
  check Alcotest.bool "constant zero ok" true (Cm.constant 0 = Cm.Constant 0)

let cm_testable =
  Alcotest.testable (fun ppf cm -> Format.pp_print_string ppf (Cm.to_string cm)) ( = )

let test_cm_string_roundtrip () =
  List.iter
    (fun cm ->
      match Cm.of_string (Cm.to_string cm) with
      | Ok cm' -> check cm_testable (Cm.to_string cm) cm cm'
      | Error e -> Alcotest.failf "%S did not round-trip: %s" (Cm.to_string cm) e)
    [ Cm.Suicide; Cm.default; Cm.backoff ~min_delay:1 ~max_delay:8; Cm.constant 0; Cm.constant 4 ];
  List.iter
    (fun s ->
      match Cm.of_string s with
      | Ok _ -> Alcotest.failf "of_string accepted %S" s
      | Error _ -> ())
    [ ""; "bogus"; "backoff(8..4)"; "backoff(0..8)"; "backoff(1..2)x"; "constant(-1)"; "suicidal" ]

(* -- Transactions: sequential semantics ------------------------------------ *)

let with_txn_env ?mode f =
  let e = fresh_engine () in
  let r = Region.create e ~name:"main" ?mode () in
  let txn = Txn.create e ~worker_id:0 in
  f e r txn

let test_txn_read_initial () =
  with_txn_env (fun _ r txn ->
      let v = Tvar.make r 41 in
      check Alcotest.int "initial" 41 (Txn.atomically txn (fun t -> Txn.read t v)))

let test_txn_write_then_read () =
  with_txn_env (fun _ r txn ->
      let v = Tvar.make r 0 in
      Txn.atomically txn (fun t ->
          Txn.write t v 10;
          check Alcotest.int "read own write" 10 (Txn.read t v);
          Txn.write t v 20;
          check Alcotest.int "second own write" 20 (Txn.read t v));
      check Alcotest.int "committed" 20 (Tvar.peek v))

let test_txn_modify () =
  with_txn_env (fun _ r txn ->
      let v = Tvar.make r 5 in
      Txn.atomically txn (fun t -> Txn.modify t v (fun x -> x * 3));
      check Alcotest.int "modified" 15 (Tvar.peek v))

let test_txn_user_exception_aborts () =
  with_txn_env (fun _ r txn ->
      let v = Tvar.make r 1 in
      Alcotest.check_raises "propagates" Exit (fun () ->
          Txn.atomically txn (fun t ->
              Txn.write t v 99;
              raise Exit));
      check Alcotest.int "not published" 1 (Tvar.peek v);
      (* The descriptor is reusable after the exception. *)
      Txn.atomically txn (fun t -> Txn.write t v 2);
      check Alcotest.int "next txn fine" 2 (Tvar.peek v))

let test_txn_no_nesting () =
  with_txn_env (fun _ r txn ->
      let v = Tvar.make r 0 in
      Alcotest.check_raises "nesting rejected"
        (Invalid_argument "Txn.atomically: transactions do not nest") (fun () ->
          Txn.atomically txn (fun _ -> ignore (Txn.atomically txn (fun t -> Txn.read t v)))))

let test_txn_ops_outside_rejected () =
  with_txn_env (fun _ r txn ->
      let v = Tvar.make r 0 in
      Alcotest.check_raises "read" (Invalid_argument "Txn.read: no transaction is running")
        (fun () -> ignore (Txn.read txn v));
      Alcotest.check_raises "write" (Invalid_argument "Txn.write: no transaction is running")
        (fun () -> Txn.write txn v 1))

let test_txn_worker_id_bounds () =
  let e = fresh_engine ~max_workers:2 () in
  ignore (Txn.create e ~worker_id:0);
  ignore (Txn.create e ~worker_id:1);
  Alcotest.check_raises "out of range" (Invalid_argument "Txn.create: worker_id out of range")
    (fun () -> ignore (Txn.create e ~worker_id:2))

let test_txn_return_value () =
  with_txn_env (fun _ r txn ->
      let v = Tvar.make r 7 in
      check Alcotest.(pair int string) "value" (7, "ok")
        (Txn.atomically txn (fun t -> (Txn.read t v, "ok"))))

(* Same-slot co-location: with a whole-region table every tvar shares one
   orec; writes and reads must still be correct. *)
let test_txn_whole_region_colocation () =
  with_txn_env ~mode:(invisible_mode 0) (fun _ r txn ->
      let a = Tvar.make r 1 and b = Tvar.make r 2 and c = Tvar.make r 3 in
      Txn.atomically txn (fun t ->
          Txn.write t a 10;
          (* b shares a's orec but was never written: must read committed. *)
          check Alcotest.int "co-located read" 2 (Txn.read t b);
          Txn.write t b 20;
          check Alcotest.int "own write a" 10 (Txn.read t a);
          check Alcotest.int "own write b" 20 (Txn.read t b);
          check Alcotest.int "c untouched" 3 (Txn.read t c));
      check Alcotest.int "a" 10 (Tvar.peek a);
      check Alcotest.int "b" 20 (Tvar.peek b);
      check Alcotest.int "c" 3 (Tvar.peek c))

let test_txn_visible_mode_sequential () =
  with_txn_env ~mode:(visible_mode 4) (fun _ r txn ->
      let v = Tvar.make r 0 in
      Txn.atomically txn (fun t ->
          check Alcotest.int "visible read" 0 (Txn.read t v);
          (* Re-read exercises the already-held fast path. *)
          check Alcotest.int "re-read" 0 (Txn.read t v);
          Txn.write t v 5;
          check Alcotest.int "upgrade to write" 5 (Txn.read t v));
      check Alcotest.int "committed" 5 (Tvar.peek v);
      check Alcotest.int "reader counters released" 0
        (Lock_table.readers_total r.Region.config.Region.table))

let test_txn_too_many_attempts () =
  let e = fresh_engine ~max_attempts:3 ~contention_manager:Cm.Suicide () in
  let r = Region.create e ~name:"main" () in
  let v = Tvar.make r 0 in
  (* A second descriptor grabs the lock and never releases (simulating a
     stalled competitor); the victim must give up after max_attempts. *)
  let blocker = Txn.create e ~worker_id:1 in
  Txn.begin_txn blocker;
  Txn.write blocker v 99;
  let victim = Txn.create e ~worker_id:0 in
  (try
     ignore (Txn.atomically victim (fun t -> Txn.write t v 1));
     Alcotest.fail "expected Too_many_attempts"
   with Txn.Too_many_attempts n -> check Alcotest.int "attempts" 4 n);
  Txn.rollback blocker;
  (* After the blocker rolls back, progress resumes. *)
  Txn.atomically victim (fun t -> Txn.write t v 1);
  check Alcotest.int "eventually" 1 (Tvar.peek v)

let test_txn_attempt_counter () =
  with_txn_env (fun _ r txn ->
      let v = Tvar.make r 0 in
      Txn.atomically txn (fun t ->
          check Alcotest.int "first try" 1 (Txn.attempt t);
          Txn.write t v 1))

(* Read-time validation must abort a transaction whose snapshot is stale —
   exercised here deterministically via the internal API. *)
let test_txn_stale_read_aborts_and_retries () =
  with_txn_env (fun e r txn ->
      let a = Tvar.make r 0 and b = Tvar.make r 0 in
      let writer = Txn.create e ~worker_id:1 in
      let tries = ref 0 in
      let result =
        Txn.atomically txn (fun t ->
            incr tries;
            let va = Txn.read t a in
            (* A competitor commits to [a] after we read it (first try only). *)
            if !tries = 1 then Txn.atomically writer (fun w -> Txn.write w a 100);
            let vb = Txn.read t b in
            (* Trigger validation by touching a location the competitor also
               bumps; reading a fresh [a] version forces extension. *)
            if !tries = 1 then ignore (Txn.read t a);
            (va, vb))
      in
      check Alcotest.bool "retried" true (!tries >= 2);
      check Alcotest.(pair int int) "consistent result" (100, 0) result)

(* A pooled descriptor must not pin heap objects (tvars, regions, reader
   counters) from its last transaction: both the commit and the rollback
   paths wipe the pointer-holding sets.  [Txn.debug_resident] counts slots
   still holding a non-dummy reference. *)
let test_txn_descriptor_releases_references () =
  with_txn_env ~mode:(visible_mode 4) (fun _ r txn ->
      let a = Tvar.make r 1 and b = Tvar.make r 2 in
      Txn.atomically txn (fun t ->
          ignore (Txn.read t a);
          Txn.write t b (Txn.read t b + 1));
      check Alcotest.int "no refs after commit" 0 (Txn.debug_resident txn);
      Alcotest.check_raises "body raises" Exit (fun () ->
          Txn.atomically txn (fun t ->
              ignore (Txn.read t a);
              Txn.write t b 99;
              raise Exit));
      check Alcotest.int "no refs after rollback" 0 (Txn.debug_resident txn))

(* The descriptor's indexed lookups (read-set dedup, visible-hold and
   self-lock lookups) must not change what a transaction computes: a seeded
   single-worker workload must leave the same state as a sequential array
   model fed the same RNG draws (one worker never aborts, so the draws stay
   in lockstep). *)
let model_workload ~n ~atomically ~read ~write =
  let rng = Rng.make 7 in
  for _ = 1 to 50 do
    atomically (fun t ->
        let sum = ref 0 in
        (* Duplicate reads are likely (8 draws over 32 slots): exercises the
           dedup and already-held paths. *)
        for _ = 1 to 8 do
          sum := !sum + read t (Rng.int rng n)
        done;
        write t (Rng.int rng n) !sum)
  done

let test_txn_matches_model () =
  let n = 32 in
  let model = Array.init n Fun.id in
  model_workload ~n
    ~atomically:(fun body -> body ())
    ~read:(fun () i -> model.(i))
    ~write:(fun () i v -> model.(i) <- v);
  List.iter
    (fun mode ->
      let e = Engine.create () in
      let r = Region.create e ~name:"model" ~mode () in
      let tvars = Array.init n (fun i -> Tvar.make r i) in
      let txn = Txn.create e ~worker_id:0 in
      model_workload ~n ~atomically:(Txn.atomically txn)
        ~read:(fun t i -> Txn.read t tvars.(i))
        ~write:(fun t i v -> Txn.write t tvars.(i) v);
      check Alcotest.(array int) "same final state as the model" model (Array.map Tvar.peek tvars))
    [ invisible_mode 4; visible_mode 4; invisible_mode 0; write_through_mode 4 ]

(* -- Write-through update strategy ----------------------------------------- *)

let test_write_through_sequential () =
  with_txn_env ~mode:(write_through_mode 8) (fun _ r txn ->
      let v = Tvar.make r 0 in
      Txn.atomically txn (fun t ->
          Txn.write t v 5;
          check Alcotest.int "in-place write readable" 5 (Txn.read t v);
          Txn.write t v 9;
          check Alcotest.int "second write" 9 (Txn.read t v));
      check Alcotest.int "committed" 9 (Tvar.peek v))

let test_write_through_undo_on_abort () =
  with_txn_env ~mode:(write_through_mode 8) (fun _ r txn ->
      let a = Tvar.make r 1 and b = Tvar.make r 2 in
      Alcotest.check_raises "propagates" Exit (fun () ->
          Txn.atomically txn (fun t ->
              Txn.write t a 100;
              Txn.write t b 200;
              (* Multiple writes to one tvar: undo must restore the
                 original, not an intermediate. *)
              Txn.write t a 101;
              Txn.write t a 102;
              raise Exit));
      check Alcotest.int "a restored" 1 (Tvar.peek a);
      check Alcotest.int "b restored" 2 (Tvar.peek b);
      (* The descriptor works again afterwards. *)
      Txn.atomically txn (fun t -> Txn.write t a 7);
      check Alcotest.int "next txn" 7 (Tvar.peek a))

let test_write_through_mixed_with_write_back () =
  let e = fresh_engine () in
  let wt = Region.create e ~name:"wt" ~mode:(write_through_mode 8) () in
  let wb = Region.create e ~name:"wb" ~mode:(invisible_mode 8) () in
  let x = Tvar.make wt 0 and y = Tvar.make wb 0 in
  let txn = Txn.create e ~worker_id:0 in
  Txn.atomically txn (fun t ->
      Txn.write t x 1;
      Txn.write t y 1);
  check Alcotest.int "wt committed" 1 (Tvar.peek x);
  check Alcotest.int "wb committed" 1 (Tvar.peek y);
  Alcotest.check_raises "abort" Exit (fun () ->
      Txn.atomically txn (fun t ->
          Txn.write t x 42;
          Txn.write t y 42;
          raise Exit));
  check Alcotest.int "wt undone" 1 (Tvar.peek x);
  check Alcotest.int "wb not published" 1 (Tvar.peek y)

(* -- Blocking retry ---------------------------------------------------------- *)

let test_retry_requires_reads () =
  with_txn_env (fun _ r txn ->
      let _ = Tvar.make r 0 in
      Alcotest.check_raises "empty wait set"
        (Invalid_argument "Txn.retry: nothing read invisibly (the wait set would be empty)")
        (fun () -> Txn.atomically txn (fun t -> if true then Txn.retry t else ())))

(* Read-set dedup stays exact: validation charges one [Validate_entry] per
   read-set entry, so however often a transaction re-reads an orec, a
   validation must charge exactly one entry per distinct orec read.  A
   missed duplicate would add charges, and with them simulated cycles. *)
let validate_entry_charges txn tvars order =
  let charges = ref 0 in
  Txn.atomically txn (fun t ->
      List.iter (fun i -> ignore (Txn.read t tvars.(i))) order;
      Fun.protect ~finally:Runtime_hook.reset (fun () ->
          Runtime_hook.install
            ~charge:(function Runtime_hook.Validate_entry -> incr charges | _ -> ())
            ~relax:ignore ();
          check Alcotest.bool "read set valid" true (Txn.validate t)));
  !charges

let test_txn_dedup_exact () =
  (* g1: two orecs, 40 reads alternating between them. *)
  with_txn_env ~mode:(invisible_mode 1) (fun _ r txn ->
      let slot tv = Lock_table.slot_of_id r.Region.config.Region.table tv.Tvar.id in
      let first = Tvar.make r 0 in
      let rec on_other_orec () =
        let tv = Tvar.make r 1 in
        if slot tv <> slot first then tv else on_other_orec ()
      in
      let tvars = [| first; on_other_orec () |] in
      check Alcotest.int "g1, 40 alternating reads: one entry per orec" 2
        (validate_entry_charges txn tvars (List.init 40 (fun i -> i land 1))));
  (* g14: 100 reads of 50 tvars, each read twice. *)
  with_txn_env ~mode:(invisible_mode 14) (fun _ r txn ->
      let tvars = Array.init 50 (fun i -> Tvar.make r i) in
      let orecs =
        Array.to_list tvars
        |> List.map (fun tv -> Lock_table.slot_of_id r.Region.config.Region.table tv.Tvar.id)
        |> List.sort_uniq compare |> List.length
      in
      check Alcotest.int "g14, 100 reads of 50 tvars: one entry per orec" orecs
        (validate_entry_charges txn tvars (List.init 100 (fun i -> i mod 50))))

(* The invisible read set is a list-based dedup: a read of an orec not
   locked by the transaction appends (region, slot, observed word) unless
   the orec's latest entry already holds that word.  Random read sequences
   over 1-3 regions at g0/g4/g10/g16, with the transaction's own writes
   (whose orecs it then reads without logging) and a helper's commits in
   between (which change observed words).  Lengths up to 600 cross the
   switch from the scanned set to the indexed one.  Extension validation
   is switched off so that a re-read after a helper commit extends instead
   of aborting: the mismatching word must then be appended. *)
type read_set_op = Rs_read of int * int | Rs_own_write of int * int | Rs_other_write of int * int

let read_set_tvars = 48

let read_set_op_gen ~regions =
  QCheck2.Gen.(
    let target = pair (int_range 0 (regions - 1)) (int_range 0 (read_set_tvars - 1)) in
    frequency
      [
        (17, map (fun (r, i) -> Rs_read (r, i)) target);
        (1, map (fun (r, i) -> Rs_own_write (r, i)) target);
        (2, map (fun (r, i) -> Rs_other_write (r, i)) target);
      ])

let read_set_case_gen =
  QCheck2.Gen.(
    list_size (int_range 1 3) (oneofl [ 0; 4; 10; 16 ]) >>= fun grans ->
    list_size (int_range 1 600) (read_set_op_gen ~regions:(List.length grans))
    >|= fun ops -> (grans, ops))

let read_set_matches_reference (grans, ops) =
  let e = fresh_engine () in
  let regions =
    Array.of_list
      (List.mapi
         (fun k g -> Region.create e ~name:(Printf.sprintf "r%d" k) ~mode:(invisible_mode g) ())
         grans)
  in
  let tvars = Array.map (fun r -> Array.init read_set_tvars (fun i -> Tvar.make r i)) regions in
  let txn = Txn.create e ~worker_id:0 and helper = Txn.create e ~worker_id:1 in
  let orec r i =
    let table = regions.(r).Region.config.Region.table in
    let slot = Lock_table.slot_of_id table tvars.(r).(i).Tvar.id in
    (slot, Lock_table.word table slot)
  in
  let reference = ref [] (* newest first *) in
  Bug.with_bug Bug.Skip_extension_validation (fun () ->
      Txn.begin_txn txn;
      List.iter
        (function
          | Rs_read (r, i) ->
              ignore (Txn.read txn tvars.(r).(i));
              let slot, word = orec r i in
              let w = Atomic.get word in
              let region = regions.(r).Region.id in
              let latest =
                List.find_opt (fun (r', s', _) -> r' = region && s' = slot) !reference
              in
              if (not (Orec.is_locked w)) && Option.map (fun (_, _, o) -> o) latest <> Some w then
                reference := (region, slot, w) :: !reference
          | Rs_own_write (r, i) -> Txn.write txn tvars.(r).(i) i
          | Rs_other_write (r, i) ->
              (* Only the transaction under test holds locks. *)
              if not (Orec.is_locked (Atomic.get (snd (orec r i)))) then
                Txn.atomically helper (fun h -> Txn.write h tvars.(r).(i) (i + 1)))
        ops;
      let logged = Txn.debug_read_log txn in
      Txn.rollback txn;
      logged = List.rev !reference)

let prop_read_set_matches_reference =
  qtest ~count:100 "read set matches list-based dedup" read_set_case_gen read_set_matches_reference

(* A validation failure names the region and slot of the first stale read
   entry, whichever of the transaction's regions holds it.  The
   descriptor first touches the regions in the reverse of the order the
   transaction activates them, so an entry's pooled index differs from
   its activation rank. *)
let test_txn_validation_attribution () =
  let e = fresh_engine () in
  let regions = Array.init 4 (fun k -> Region.create e ~name:(Printf.sprintf "r%d" k) ()) in
  let tvars = Array.map (fun r -> Tvar.make r 0) regions in
  let txn = Txn.create e ~worker_id:0 and helper = Txn.create e ~worker_id:1 in
  Txn.atomically txn (fun t ->
      for k = 3 downto 0 do
        ignore (Txn.read t tvars.(k))
      done);
  let conflicts = ref [] in
  let tap =
    Engine.add_tap e
      {
        Engine.null_recorder with
        Engine.rec_conflict =
          (fun ~txn:_ ~cause ~region ~slot ->
            if cause = Engine.Validation then conflicts := (region, slot) :: !conflicts);
      }
  in
  for stale = 0 to 2 do
    conflicts := [];
    Txn.atomically txn (fun t ->
        for k = 0 to 2 do
          ignore (Txn.read t tvars.(k))
        done;
        if Txn.attempt t = 1 then
          Txn.atomically helper (fun h -> Txn.write h tvars.(stale) (Txn.read h tvars.(stale) + 1));
        (* An update, so the commit validates: the fourth region's orec is
           untouched, so validation is what fails. *)
        Txn.write t tvars.(3) stale);
    let region = regions.(stale) in
    let slot = Lock_table.slot_of_id region.Region.config.Region.table tvars.(stale).Tvar.id in
    check
      Alcotest.(list (pair int int))
      (Printf.sprintf "stale entry in activated region %d" (stale + 1))
      [ (region.Region.id, slot) ]
      !conflicts
  done;
  Engine.remove_tap e tap

(* A body exception under every valid protocol x write policy: rollback
   releases every lock and reader hold, leaves the commit-time seqlock and
   the multi-version state where they were, publishes nothing, and counts
   exactly one abort and no commit. *)
let test_txn_body_exception_every_mode () =
  let modes =
    [
      ("invisible-wb", Mode.make ());
      ("invisible-wt", Mode.make ~update:Mode.Write_through ());
      ("visible-wb", Mode.make ~visibility:Mode.Visible ());
      ("visible-wt", Mode.make ~visibility:Mode.Visible ~update:Mode.Write_through ());
      ("mv8-wb", Mode.make ~protocol:(Protocol.Multi_version { depth = 8 }) ());
      ("ctl-wb", Mode.make ~protocol:Protocol.Commit_time_lock ());
    ]
  in
  List.iter
    (fun (name, mode) ->
      Mode.validate mode;
      with_txn_env ~mode (fun e r txn ->
          let a = Tvar.make r 1 and b = Tvar.make r 2 in
          (* One committed write first, so the multi-version state belongs
             to the region's current period. *)
          Txn.atomically txn (fun t -> Txn.write t b 3);
          let seq = Seqlock.read r.Region.ctl_seq in
          let mv_version = Mv_history.version b.Tvar.mv in
          let mv_epoch = Mv_history.epoch b.Tvar.mv in
          let clock = Engine.now e in
          let stats = Region_stats.snapshot r.Region.stats in
          let table = r.Region.config.Region.table in
          let words = Array.map Atomic.get table.Lock_table.words in
          Alcotest.check_raises (name ^ ": exception propagates") Exit (fun () ->
              Txn.atomically txn (fun t ->
                  Txn.write t b (Txn.read t a + 10);
                  Txn.write t a 20;
                  raise Exit));
          let after = Region_stats.snapshot r.Region.stats in
          let label what = name ^ ": " ^ what in
          check Alcotest.int (label "a unchanged") 1 (Tvar.peek a);
          check Alcotest.int (label "b unchanged") 3 (Tvar.peek b);
          check Alcotest.(array int) (label "orec words bit-identical") words
            (Array.map Atomic.get table.Lock_table.words);
          check Alcotest.int (label "no reader hold") 0 (Lock_table.readers_total table);
          check Alcotest.int (label "seqlock unchanged") seq (Seqlock.read r.Region.ctl_seq);
          check Alcotest.bool (label "seqlock even") false (Seqlock.is_locked seq);
          check Alcotest.int (label "clock not advanced") clock (Engine.now e);
          check Alcotest.int (label "mv version not advanced") mv_version
            (Mv_history.version b.Tvar.mv);
          check Alcotest.int (label "mv epoch unchanged") mv_epoch (Mv_history.epoch b.Tvar.mv);
          check Alcotest.int (label "one abort")
            (stats.Region_stats.s_aborts + 1)
            after.Region_stats.s_aborts;
          check Alcotest.int (label "no commit") stats.Region_stats.s_commits
            after.Region_stats.s_commits))
    modes

(* A ring outlives its multi-version period only until the tvar's next
   locked write outside multi-version, under either write policy; a later
   multi-version period rebuilds it on the stale epoch and serves history
   again. *)
let test_txn_ring_dropped_outside_mv () =
  let mv8 = Mode.make ~granularity_log2:8 ~protocol:(Protocol.Multi_version { depth = 8 }) () in
  with_txn_env ~mode:mv8 (fun e r txn ->
      let v = Tvar.make r 0 in
      let has_ring () = v.Tvar.mv != Mv_history.initial in
      let mv_write value =
        Region.reconfigure r mv8;
        Txn.atomically txn (fun t -> Txn.write t v value);
        check Alcotest.int "the mv write builds a ring of this period"
          r.Region.config.Region.mv_epoch (Mv_history.epoch v.Tvar.mv)
      in
      List.iter
        (fun (name, mode) ->
          mv_write 1;
          Region.reconfigure r mode;
          check Alcotest.bool (name ^ ": the reconfigure alone keeps the ring") true (has_ring ());
          Txn.atomically txn (fun t -> check Alcotest.int (name ^ ": read") 1 (Txn.read t v));
          check Alcotest.bool (name ^ ": a read keeps it") true (has_ring ());
          Txn.atomically txn (fun t -> Txn.write t v 2);
          check Alcotest.bool (name ^ ": the next write drops it") false (has_ring ());
          check Alcotest.int (name ^ ": value") 2 (Tvar.peek v))
        [ ("sv-wb", invisible_mode 8); ("sv-wt", write_through_mode 8) ];
      mv_write 3;
      let reader = Txn.create e ~worker_id:1 in
      Txn.begin_txn reader;
      Txn.atomically txn (fun t -> Txn.write t v 4);
      let hist_before = (Region_stats.snapshot r.Region.stats).Region_stats.s_mv_hist_reads in
      check Alcotest.int "history serves the reader's snapshot" 3 (Txn.read reader v);
      Txn.commit reader;
      check Alcotest.int "served from the ring" (hist_before + 1)
        (Region_stats.snapshot r.Region.stats).Region_stats.s_mv_hist_reads;
      check Alcotest.int "current value" 4 (Tvar.peek v))

(* A read of an orec the transaction later write-locks is validated
   against the pre-lock version its own lock word carries.  [x] is read,
   then written; inside the body a second descriptor commits, so the
   commit's wv is not rv + 1 and the read set is validated with [x]'s orec
   locked by the validator itself. *)
let test_txn_self_locked_read_valid () =
  with_txn_env ~mode:(invisible_mode 10) (fun e r txn ->
      let slot tv = Lock_table.slot_of_id r.Region.config.Region.table tv.Tvar.id in
      let x = Tvar.make r 1 in
      let rec elsewhere () =
        let tv = Tvar.make r 0 in
        if slot tv <> slot x then tv else elsewhere ()
      in
      let y = elsewhere () in
      let other = Txn.create e ~worker_id:1 in
      let validated = ref 0 and tries = ref 0 in
      Fun.protect ~finally:Runtime_hook.reset (fun () ->
          Runtime_hook.install
            ~charge:(function Runtime_hook.Validate_entry -> incr validated | _ -> ())
            ~relax:ignore ();
          Txn.atomically txn (fun t ->
              incr tries;
              Txn.write t x (Txn.read t x + 1);
              Txn.atomically other (fun o -> Txn.write o y 7)));
      check Alcotest.int "committed first try" 1 !tries;
      check Alcotest.bool "read set validated" true (!validated > 0);
      check Alcotest.int "x written" 2 (Tvar.peek x);
      check Alcotest.int "y written" 7 (Tvar.peek y);
      check Alcotest.int "no validation failure" 0
        (Region_stats.snapshot r.Region.stats).Region_stats.s_validation_fails)

(* The same shape, but the second descriptor commits to [x] itself
   between the read and the lock: the pre-lock version no longer matches
   the observed word, so the attempt aborts and the retry reads the new
   value. *)
let test_txn_self_locked_read_stale () =
  with_txn_env ~mode:(invisible_mode 10) (fun e r txn ->
      let x = Tvar.make r 1 in
      let other = Txn.create e ~worker_id:1 in
      let tries = ref 0 in
      let seen =
        Txn.atomically txn (fun t ->
            incr tries;
            let v = Txn.read t x in
            if !tries = 1 then Txn.atomically other (fun o -> Txn.write o x 10);
            Txn.write t x (v + 1);
            v)
      in
      check Alcotest.int "retried once" 2 !tries;
      check Alcotest.int "retry read the new value" 10 seen;
      check Alcotest.int "x written on the new value" 11 (Tvar.peek x);
      check Alcotest.int "one validation failure" 1
        (Region_stats.snapshot r.Region.stats).Region_stats.s_validation_fails)

let test_retry_wakes_on_write () =
  let e = fresh_engine () in
  let r = Region.create e ~name:"main" () in
  let flag = Tvar.make r false and value = Tvar.make r 0 in
  let consumer =
    Domain.spawn (fun () ->
        let txn = Txn.create e ~worker_id:0 in
        Txn.atomically txn (fun t ->
            if not (Txn.read t flag) then Txn.retry t else Txn.read t value))
  in
  (* Give the consumer time to park, then publish. *)
  for _ = 1 to 200_000 do
    Domain.cpu_relax ()
  done;
  let producer = Txn.create e ~worker_id:1 in
  Txn.atomically producer (fun t ->
      Txn.write t value 42;
      Txn.write t flag true);
  check Alcotest.int "consumer observed the publish" 42 (Domain.join consumer)

(* Producer/consumer through a queue: consumers block with [retry] instead
   of spinning with polling loops; every element is consumed exactly once. *)
let test_retry_producer_consumer () =
  let e = fresh_engine () in
  let r = Region.create e ~name:"main" () in
  let slots = Array.init 64 (fun _ -> Tvar.make r None) in
  let produced = 64 and consumers = 2 in
  let take_index = Tvar.make r 0 in
  let consumer_domain worker_id =
    Domain.spawn (fun () ->
        let txn = Txn.create e ~worker_id in
        let taken = ref [] in
        let finished = ref false in
        while not !finished do
          let outcome =
            Txn.atomically txn (fun t ->
                let i = Txn.read t take_index in
                if i >= produced then `Done
                else
                  match Txn.read t slots.(i) with
                  | None -> Txn.retry t  (* wait for the producer *)
                  | Some v ->
                      Txn.write t take_index (i + 1);
                      `Got v)
          in
          match outcome with `Done -> finished := true | `Got v -> taken := v :: !taken
        done;
        !taken)
  in
  let consumer_domains = List.init consumers (fun i -> consumer_domain i) in
  let producer = Txn.create e ~worker_id:consumers in
  for i = 0 to produced - 1 do
    Txn.atomically producer (fun t -> Txn.write t slots.(i) (Some i));
    if i mod 7 = 0 then Domain.cpu_relax ()
  done;
  let consumed = List.concat_map Domain.join consumer_domains in
  check Alcotest.(list int) "each element consumed exactly once"
    (List.init produced Fun.id)
    (List.sort compare consumed)

(* -- Concurrency (real domains) -------------------------------------------- *)

let run_workers n body =
  let domains = List.init n (fun i -> Domain.spawn (fun () -> body i)) in
  List.iter Domain.join domains

let test_concurrent_counter mode () =
  let e = fresh_engine () in
  let r = Region.create e ~name:"main" ~mode () in
  let counter = Tvar.make r 0 in
  let workers = 4 and iterations = 3000 in
  run_workers workers (fun w ->
      let txn = Txn.create e ~worker_id:w in
      for _ = 1 to iterations do
        Txn.atomically txn (fun t -> Txn.write t counter (Txn.read t counter + 1))
      done);
  check Alcotest.int "no lost updates" (workers * iterations) (Tvar.peek counter)

(* Opacity: a transaction must never observe x <> y, even transiently inside
   the transaction body, while writers keep x = y. *)
let test_opacity mode () =
  let e = fresh_engine () in
  let r = Region.create e ~name:"main" ~mode () in
  let x = Tvar.make r 0 and y = Tvar.make r 0 in
  let violations = Atomic.make 0 in
  run_workers 4 (fun w ->
      let txn = Txn.create e ~worker_id:w in
      for _ = 1 to 2000 do
        if w < 2 then
          Txn.atomically txn (fun t ->
              let a = Txn.read t x in
              Txn.write t x (a + 1);
              Txn.write t y (Txn.read t y + 1))
        else
          Txn.atomically txn (fun t ->
              let a = Txn.read t x and b = Txn.read t y in
              if a <> b then Atomic.incr violations)
      done);
  check Alcotest.int "no snapshot violations" 0 (Atomic.get violations);
  check Alcotest.int "x=y finally" (Tvar.peek x) (Tvar.peek y)

(* Write skew: T1 reads y, writes x; T2 reads x, writes y. Serializability
   requires x + y <= limit to be maintained when each txn checks the sum. *)
let test_no_write_skew mode () =
  let e = fresh_engine () in
  let r = Region.create e ~name:"main" ~mode () in
  let x = Tvar.make r 0 and y = Tvar.make r 0 in
  run_workers 4 (fun w ->
      let txn = Txn.create e ~worker_id:w in
      for _ = 1 to 1000 do
        Txn.atomically txn (fun t ->
            let a = Txn.read t x and b = Txn.read t y in
            if a + b < 1 then if w mod 2 = 0 then Txn.write t x (a + 1) else Txn.write t y (b + 1))
      done);
  check Alcotest.bool "sum bounded" true (Tvar.peek x + Tvar.peek y <= 1)

(* Mixed visibility inside one transaction: invariants must hold across a
   visible and an invisible region. *)
let test_cross_region_consistency () =
  let e = fresh_engine () in
  let rv = Region.create e ~name:"vis" ~mode:(visible_mode 4) () in
  let ri = Region.create e ~name:"inv" ~mode:(invisible_mode 8) () in
  let x = Tvar.make rv 0 and y = Tvar.make ri 0 in
  let violations = Atomic.make 0 in
  run_workers 4 (fun w ->
      let txn = Txn.create e ~worker_id:w in
      for _ = 1 to 2000 do
        if w < 2 then
          Txn.atomically txn (fun t ->
              Txn.write t x (Txn.read t x + 1);
              Txn.write t y (Txn.read t y + 1))
        else
          Txn.atomically txn (fun t ->
              if Txn.read t x <> Txn.read t y then Atomic.incr violations)
      done);
  check Alcotest.int "cross-region snapshots consistent" 0 (Atomic.get violations);
  check Alcotest.int "final equal" (Tvar.peek x) (Tvar.peek y)

(* Online reconfiguration under load: flipping visibility and granularity
   while workers hammer a counter must not lose updates. *)
let test_reconfigure_under_load () =
  let e = fresh_engine () in
  let r = Region.create e ~name:"main" () in
  let counter = Tvar.make r 0 in
  let stop = Atomic.make false in
  let workers = 3 and iterations = 4000 in
  let domains =
    List.init workers (fun w ->
        Domain.spawn (fun () ->
            let txn = Txn.create e ~worker_id:w in
            for _ = 1 to iterations do
              Txn.atomically txn (fun t -> Txn.write t counter (Txn.read t counter + 1))
            done))
  in
  let tuner =
    Domain.spawn (fun () ->
        let modes =
          [| invisible_mode 10; visible_mode 4; invisible_mode 0; visible_mode 10 |]
        in
        let i = ref 0 in
        while not (Atomic.get stop) do
          Region.reconfigure r modes.(!i mod Array.length modes);
          incr i;
          for _ = 1 to 2000 do
            Domain.cpu_relax ()
          done
        done)
  in
  List.iter Domain.join domains;
  Atomic.set stop true;
  Domain.join tuner;
  check Alcotest.int "no lost updates across reconfigurations" (workers * iterations)
    (Tvar.peek counter)

let () =
  Alcotest.run "partstm_stm"
    [
      ("orec", [ Alcotest.test_case "encoding" `Quick test_orec_encoding; prop_orec_roundtrip ]);
      ( "mode",
        [
          Alcotest.test_case "validate" `Quick test_mode_validate;
          Alcotest.test_case "equal" `Quick test_mode_equal;
        ] );
      ( "engine",
        [
          Alcotest.test_case "clock" `Quick test_engine_clock;
          Alcotest.test_case "unique ids" `Quick test_engine_ids_unique;
          Alcotest.test_case "owner and version guards" `Quick test_engine_guards;
          Alcotest.test_case "enter/leave" `Quick test_engine_enter_leave;
          Alcotest.test_case "quiesce" `Quick test_engine_quiesce;
          Alcotest.test_case "quiesce waits" `Quick test_engine_quiesce_waits_for_inflight;
        ] );
      ( "lock_table",
        [
          Alcotest.test_case "basics" `Quick test_lock_table_basics;
          Alcotest.test_case "whole region" `Quick test_lock_table_whole_region;
          prop_lock_table_slot_in_range;
        ] );
      ( "tvar",
        [
          Alcotest.test_case "one block, value in field 0" `Quick test_tvar_layout;
          Alcotest.test_case "make allocates one block" `Quick test_tvar_make_one_block;
        ] );
      ( "region",
        [
          Alcotest.test_case "mode and reconfigure" `Quick test_region_mode_and_reconfigure;
          Alcotest.test_case "tvar count" `Quick test_region_tvar_count;
        ] );
      ( "region_stats",
        [
          Alcotest.test_case "snapshot/diff" `Quick test_region_stats_snapshot_diff;
          Alcotest.test_case "ratios" `Quick test_region_stats_ratios;
          Alcotest.test_case "diff roundtrip all fields" `Quick test_region_stats_diff_roundtrip;
          Alcotest.test_case "record mode switch" `Quick test_region_stats_record_mode_switch;
          Alcotest.test_case "reconfigure not counted" `Quick test_region_reconfigure_not_counted;
        ] );
      ( "cm",
        [
          Alcotest.test_case "delay runs" `Quick test_cm_delay_runs;
          Alcotest.test_case "to_string" `Quick test_cm_to_string;
          Alcotest.test_case "smart constructors" `Quick test_cm_smart_constructors;
          Alcotest.test_case "string round-trip" `Quick test_cm_string_roundtrip;
        ] );
      ( "txn_sequential",
        [
          Alcotest.test_case "read initial" `Quick test_txn_read_initial;
          Alcotest.test_case "write then read" `Quick test_txn_write_then_read;
          Alcotest.test_case "modify" `Quick test_txn_modify;
          Alcotest.test_case "user exception aborts" `Quick test_txn_user_exception_aborts;
          Alcotest.test_case "no nesting" `Quick test_txn_no_nesting;
          Alcotest.test_case "ops outside rejected" `Quick test_txn_ops_outside_rejected;
          Alcotest.test_case "worker id bounds" `Quick test_txn_worker_id_bounds;
          Alcotest.test_case "return value" `Quick test_txn_return_value;
          Alcotest.test_case "whole-region colocation" `Quick test_txn_whole_region_colocation;
          Alcotest.test_case "visible sequential" `Quick test_txn_visible_mode_sequential;
          Alcotest.test_case "too many attempts" `Quick test_txn_too_many_attempts;
          Alcotest.test_case "attempt counter" `Quick test_txn_attempt_counter;
          Alcotest.test_case "stale read aborts+retries" `Quick
            test_txn_stale_read_aborts_and_retries;
          Alcotest.test_case "descriptor releases references" `Quick
            test_txn_descriptor_releases_references;
          Alcotest.test_case "matches sequential model" `Quick test_txn_matches_model;
          Alcotest.test_case "write-through sequential" `Quick test_write_through_sequential;
          Alcotest.test_case "write-through undo" `Quick test_write_through_undo_on_abort;
          Alcotest.test_case "write-through + write-back mix" `Quick
            test_write_through_mixed_with_write_back;
          Alcotest.test_case "retry requires reads" `Quick test_retry_requires_reads;
          Alcotest.test_case "dedup charges one entry per orec" `Quick test_txn_dedup_exact;
          prop_read_set_matches_reference;
          Alcotest.test_case "validation names the stale region" `Quick
            test_txn_validation_attribution;
          Alcotest.test_case "body exception under every mode" `Quick
            test_txn_body_exception_every_mode;
          Alcotest.test_case "ring dropped outside mv" `Quick test_txn_ring_dropped_outside_mv;
          Alcotest.test_case "self-locked read validates" `Quick test_txn_self_locked_read_valid;
          Alcotest.test_case "self-locked stale read aborts" `Quick
            test_txn_self_locked_read_stale;
        ] );
      ( "txn_retry",
        [
          Alcotest.test_case "wakes on write" `Slow test_retry_wakes_on_write;
          Alcotest.test_case "producer/consumer" `Slow test_retry_producer_consumer;
        ] );
      ( "txn_concurrent",
        [
          Alcotest.test_case "counter invisible" `Slow (test_concurrent_counter (invisible_mode 10));
          Alcotest.test_case "counter visible" `Slow (test_concurrent_counter (visible_mode 10));
          Alcotest.test_case "counter whole-region" `Slow (test_concurrent_counter (invisible_mode 0));
          Alcotest.test_case "counter write-through" `Slow
            (test_concurrent_counter (write_through_mode 10));
          Alcotest.test_case "opacity write-through" `Slow (test_opacity (write_through_mode 10));
          Alcotest.test_case "no write skew write-through" `Slow
            (test_no_write_skew (write_through_mode 10));
          Alcotest.test_case "opacity invisible" `Slow (test_opacity (invisible_mode 10));
          Alcotest.test_case "opacity visible" `Slow (test_opacity (visible_mode 10));
          Alcotest.test_case "no write skew invisible" `Slow (test_no_write_skew (invisible_mode 10));
          Alcotest.test_case "no write skew visible" `Slow (test_no_write_skew (visible_mode 10));
          Alcotest.test_case "cross-region consistency" `Slow test_cross_region_consistency;
          Alcotest.test_case "reconfigure under load" `Slow test_reconfigure_under_load;
        ] );
    ]
