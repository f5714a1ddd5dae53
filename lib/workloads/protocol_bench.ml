(* Protocol comparison on the deterministic simulator (experiment M1,
   EXPERIMENTS.md §R-M1).

   Two phases:

   Matrix.  A read-dominated ledger — a few transfer fibers against a
   majority of full-book summing auditors — is run once per protocol
   (single-version, multi-version, commit-time-lock) with identical seeds
   and cycle budgets, so the arms differ in nothing but the protocol.  The
   headline claim is the multi-version read path's: auditor transactions
   are read-only with a fixed snapshot, so under MV they commit without
   validation and never abort, while the single-version arm burns
   read-only aborts on the same schedule seed.  Auditor aborts are
   measured from the auditor fibers' own statistics stripes
   ({!Partstm_stm.Region_stats.worker_snapshot}), which is exact: every
   auditor transaction is read-only, and a stripe has no other writer.

   Tuner autonomy.  Two partitions start at [Mode.default] with the tuner
   attached: a read-mostly scan partition (window sums with a trickle of
   writes) and a small, update-heavy, contended partition.  The acceptance
   check is that the tuner's own decision trace — not any forced
   configuration — moves the first to multi-version and the second to
   commit-time locking (DESIGN.md §10.3).

   Everything runs on the simulator: the results are deterministic
   functions of the config, so the committed BENCH_M1.json is reproducible
   byte for byte on any host. *)

open Partstm_stm
open Partstm_core
open Partstm_harness
module Json = Partstm_util.Json
module Table = Partstm_util.Table
module Rng = Partstm_util.Rng

type config = {
  auditors : int;
  updaters : int;
  accounts : int;
  initial_balance : int;
  cycles : int;
  mv_depth : int;
  seed : int;
  scan_workers : int;
  hot_workers : int;
  scan_cells : int;
  hot_cells : int;
  tuner_cycles : int;
  tuner_steps : int;
}

let default_config =
  {
    auditors = 5;
    updaters = 3;
    accounts = 32;
    initial_balance = 100;
    cycles = 1_500_000;
    mv_depth = 8;
    seed = 42;
    scan_workers = 4;
    hot_workers = 8;
    scan_cells = 128;
    hot_cells = 16;
    tuner_cycles = 3_000_000;
    tuner_steps = 6;
  }

let quick_config =
  {
    default_config with
    cycles = 400_000;
    tuner_cycles = 1_200_000;
    tuner_steps = 4;
  }

type arm = {
  a_protocol : Protocol.t;
  a_commits : int;
  a_ro_commits : int;
  a_aborts : int;
  a_ro_aborts : int;
  a_auditor_aborts : int;
  a_validation_fails : int;
  a_lock_conflicts : int;
  a_mv_hist_reads : int;
  a_ctl_commits : int;
  a_bad_sums : int;
  a_throughput : float;
}

type switch = { sw_tick : int; sw_partition : string; sw_to : Mode.t }

type report = {
  r_config : config;
  r_arms : arm list;
  r_scan_final : Mode.t;
  r_hot_final : Mode.t;
  r_switches : switch list;
}

(* -- Matrix phase --------------------------------------------------------- *)

let run_arm config protocol =
  let workers = config.auditors + config.updaters in
  let { Workload.system; state = partition, book; _ } =
    Workload.prepare ~workers ~strategy:(Strategy.Fixed (Mode.make ~protocol ()))
      (fun system ~strategy ->
        let partition =
          System.partition system "m1-book" ~mode:(Strategy.mode_for strategy "m1-book")
            ~tunable:false
        in
        let book =
          Array.init config.accounts (fun _ -> Partition.tvar partition config.initial_balance)
        in
        (* Warm the histories: one transactional rewrite of every balance, so
           each cell's multi-version state carries a real publish version
           before any auditor snapshot exists.  Without it the first
           post-start write of a cell rebuilds an epoch-stale state claiming
           "now" (DESIGN.md §10.1) — a version no early reader's snapshot
           covers, so the arm would charge the protocol for cold-start
           misses instead of steady-state behaviour. *)
        let warm = System.descriptor system ~worker_id:workers in
        Array.iter
          (fun cell -> System.atomically warm (fun t -> System.write t cell (System.read t cell)))
          book;
        (partition, book))
  in
  let expected_total = config.accounts * config.initial_balance in
  (* All fibers run on the simulator's single domain, so a plain counter
     is race-free. *)
  let bad_sums = ref 0 in
  let worker (ctx : Driver.ctx) =
    let txn = System.descriptor system ~worker_id:ctx.Driver.worker_id in
    System.set_retry_hook txn ctx.Driver.attempt_tick;
    let rng = ctx.Driver.rng in
    let operations = ref 0 in
    while not (ctx.Driver.should_stop ()) do
      if ctx.Driver.worker_id < config.auditors then begin
        let sum =
          System.atomically txn (fun t ->
              Array.fold_left (fun acc cell -> acc + System.read t cell) 0 book)
        in
        if sum <> expected_total then incr bad_sums
      end
      else begin
        let src = Rng.int rng config.accounts and dst = Rng.int rng config.accounts in
        if src <> dst then
          let amount = 1 + Rng.int rng 10 in
          System.atomically txn (fun t ->
              (* Read both balances before writing either: the write locks
                 are then held only across the two stores and the commit,
                 which keeps the writer windows the auditors must wait out
                 short. *)
              let s = System.read t book.(src) and d = System.read t book.(dst) in
              System.write t book.(src) (s - amount);
              System.write t book.(dst) (d + amount))
      end;
      incr operations
    done;
    !operations
  in
  let result =
    Driver.run ~seed:config.seed
      ~mode:(Driver.default_sim ~cycles:config.cycles ())
      ~workers worker
  in
  let stats = (Partition.region partition).Region.stats in
  let snap = Partition.snapshot partition in
  let auditor_aborts = ref 0 in
  for w = 0 to config.auditors - 1 do
    let ws = Region_stats.worker_snapshot stats w in
    auditor_aborts := !auditor_aborts + ws.Region_stats.s_aborts
  done;
  let total = Array.fold_left (fun acc cell -> acc + Tvar.peek cell) 0 book in
  if total <> expected_total then incr bad_sums;
  {
    a_protocol = protocol;
    a_commits = snap.Region_stats.s_commits;
    a_ro_commits = snap.Region_stats.s_ro_commits;
    a_aborts = snap.Region_stats.s_aborts;
    a_ro_aborts = snap.Region_stats.s_ro_aborts;
    a_auditor_aborts = !auditor_aborts;
    a_validation_fails = snap.Region_stats.s_validation_fails;
    a_lock_conflicts = snap.Region_stats.s_lock_conflicts;
    a_mv_hist_reads = snap.Region_stats.s_mv_hist_reads;
    a_ctl_commits = snap.Region_stats.s_ctl_commits;
    a_bad_sums = !bad_sums;
    a_throughput = result.Driver.throughput;
  }

(* -- Tuner-autonomy phase -------------------------------------------------- *)

let run_autonomy config =
  let workers = config.scan_workers + config.hot_workers in
  (* Both partitions start from the default mode; the tuner finds the rest. *)
  let { Workload.system; state = scan, hot, scan_cells, hot_cells; tuner } =
    Workload.prepare ~cooldown:1 ~workers ~strategy:Strategy.tuned (fun system ~strategy:_ ->
        let scan = System.partition system "m1-scan" in
        let hot = System.partition system "m1-hot" in
        let scan_cells = Array.init config.scan_cells (fun _ -> Partition.tvar scan 0) in
        let hot_cells = Array.init config.hot_cells (fun _ -> Partition.tvar hot 0) in
        (scan, hot, scan_cells, hot_cells))
  in
  let tuner = Option.get tuner in
  let window = min 64 config.scan_cells in
  let worker (ctx : Driver.ctx) =
    let txn = System.descriptor system ~worker_id:ctx.Driver.worker_id in
    System.set_retry_hook txn ctx.Driver.attempt_tick;
    let rng = ctx.Driver.rng in
    let operations = ref 0 in
    while not (ctx.Driver.should_stop ()) do
      if ctx.Driver.worker_id < config.scan_workers then begin
        (* Read-mostly: window sums with a trickle of single-cell writes.
           The sums keep the read-only commit share high; the writes give
           the sums something to fail validation against, which is the
           wasted work the multi-version switch keys on. *)
        if Rng.chance rng ~percent:90 then begin
          let start = Rng.int rng config.scan_cells in
          ignore
            (System.atomically txn (fun t ->
                 let acc = ref 0 in
                 for i = start to start + window - 1 do
                   acc := !acc + System.read t scan_cells.(i mod config.scan_cells)
                 done;
                 !acc))
        end
        else
          let i = Rng.int rng config.scan_cells in
          System.atomically txn (fun t ->
              System.write t scan_cells.(i) (System.read t scan_cells.(i) + 1))
      end
      else begin
        (* Small and update-heavy: read-modify-write a window covering most
           of the region, so any two overlapping transactions truly
           conflict and pressure stays above the commit-time-lock entry
           threshold. *)
        let start = Rng.int rng config.hot_cells in
        let span = config.hot_cells in
        System.atomically txn (fun t ->
            for k = start to start + span - 1 do
              let cell = hot_cells.(k mod config.hot_cells) in
              System.write t cell (System.read t cell + 1)
            done)
      end;
      incr operations
    done;
    !operations
  in
  let switches = ref [] in
  Tuner.on_event tuner (fun ev ->
      switches :=
        { sw_tick = ev.Tuner.ev_tick; sw_partition = ev.Tuner.ev_partition; sw_to = ev.Tuner.ev_to }
        :: !switches);
  ignore
    (Driver.run ~tuner ~tuner_steps:config.tuner_steps ~seed:(config.seed + 1)
       ~mode:(Driver.default_sim ~cycles:config.tuner_cycles ())
       ~workers worker);
  (Partition.mode scan, Partition.mode hot, List.rev !switches)

let protocols config =
  [
    Protocol.Single_version;
    Protocol.Multi_version { depth = config.mv_depth };
    Protocol.Commit_time_lock;
  ]

let run ?(progress = fun (_ : string) -> ()) config =
  let arms =
    List.map
      (fun protocol ->
        progress (Printf.sprintf "matrix arm: %s" (Protocol.to_string protocol));
        run_arm config protocol)
      (protocols config)
  in
  progress "tuner autonomy: m1-scan + m1-hot from defaults";
  let scan_final, hot_final, switches = run_autonomy config in
  {
    r_config = config;
    r_arms = arms;
    r_scan_final = scan_final;
    r_hot_final = hot_final;
    r_switches = switches;
  }

let find_arm report protocol =
  List.find_opt (fun a -> Protocol.equal a.a_protocol protocol) report.r_arms

(* -- Acceptance checks ----------------------------------------------------- *)

let mv_arm report = find_arm report (Protocol.Multi_version { depth = report.r_config.mv_depth })
let sv_arm report = find_arm report Protocol.Single_version
let ctl_arm report = find_arm report Protocol.Commit_time_lock

let check_mv_read_path report =
  match (sv_arm report, mv_arm report) with
  | Some sv, Some mv ->
      if mv.a_auditor_aborts <> 0 then
        `Failed
          (Printf.sprintf "multi-version arm aborted %d read-only auditor transaction(s)"
             mv.a_auditor_aborts)
      else if mv.a_mv_hist_reads = 0 then
        `Failed "multi-version arm never served a history read (the claim is vacuous)"
      else if sv.a_auditor_aborts = 0 then
        `Failed
          "single-version arm had no auditor aborts either — the workload exerts no \
           read/write contention"
      else `Passed
  | _ -> `Failed "missing single-version or multi-version arm"

let check_ctl_commits report =
  match ctl_arm report with
  | None -> `Failed "missing commit-time-lock arm"
  | Some ctl ->
      if ctl.a_ctl_commits = 0 then
        `Failed "commit-time-lock arm never published through the sequence lock"
      else begin
        match List.find_opt (fun a -> a.a_bad_sums > 0) report.r_arms with
        | Some bad ->
            `Failed
              (Printf.sprintf "%s arm: %d audit(s) observed an inconsistent total"
                 (Protocol.to_string bad.a_protocol)
                 bad.a_bad_sums)
        | None -> `Passed
      end

let check_tuner_protocols report =
  let picked partition test =
    List.exists
      (fun sw -> sw.sw_partition = partition && test sw.sw_to.Mode.protocol)
      report.r_switches
  in
  if not (picked "m1-scan" Protocol.is_multi_version) then
    `Failed "tuner never moved the read-mostly partition to multi-version"
  else if not (picked "m1-hot" Protocol.is_commit_time_lock) then
    `Failed "tuner never moved the contended partition to commit-time locking"
  else `Passed

let checks report =
  [
    ("mv_zero_ro_aborts", check_mv_read_path report);
    ("ctl_publishes", check_ctl_commits report);
    ("tuner_selects_protocols", check_tuner_protocols report);
  ]

(* -- Reports ---------------------------------------------------------------- *)

let arm_json a =
  Json.Obj
    [
      ("protocol", Json.String (Protocol.to_string a.a_protocol));
      ("commits", Json.Int a.a_commits);
      ("ro_commits", Json.Int a.a_ro_commits);
      ("aborts", Json.Int a.a_aborts);
      ("ro_aborts", Json.Int a.a_ro_aborts);
      ("auditor_ro_aborts", Json.Int a.a_auditor_aborts);
      ("validation_fails", Json.Int a.a_validation_fails);
      ("lock_conflicts", Json.Int a.a_lock_conflicts);
      ("mv_hist_reads", Json.Int a.a_mv_hist_reads);
      ("ctl_commits", Json.Int a.a_ctl_commits);
      ("bad_sums", Json.Int a.a_bad_sums);
      ("ops_per_mcycle", Json.Float a.a_throughput);
    ]

let switch_json sw =
  Json.Obj
    [
      ("tick", Json.Int sw.sw_tick);
      ("partition", Json.String sw.sw_partition);
      ("to", Json.String (Mode.to_string sw.sw_to));
    ]

let to_json report =
  let c = report.r_config in
  Json.Obj
    [
      ("experiment", Json.String "m1");
      ("workload", Json.String "read-dominated ledger + tuner-autonomy mix");
      ( "metric",
        Json.String
          "per-protocol commit/abort accounting on identical simulated schedules" );
      ( "config",
        Json.Obj
          [
            ("auditors", Json.Int c.auditors);
            ("updaters", Json.Int c.updaters);
            ("accounts", Json.Int c.accounts);
            ("cycles", Json.Int c.cycles);
            ("mv_depth", Json.Int c.mv_depth);
            ("seed", Json.Int c.seed);
            ("scan_workers", Json.Int c.scan_workers);
            ("hot_workers", Json.Int c.hot_workers);
            ("scan_cells", Json.Int c.scan_cells);
            ("hot_cells", Json.Int c.hot_cells);
            ("tuner_cycles", Json.Int c.tuner_cycles);
            ("tuner_steps", Json.Int c.tuner_steps);
          ] );
      ("points", Json.List (List.map arm_json report.r_arms));
      ( "tuner",
        Json.Obj
          [
            ("scan_final_mode", Json.String (Mode.to_string report.r_scan_final));
            ("hot_final_mode", Json.String (Mode.to_string report.r_hot_final));
            ("switches", Json.List (List.map switch_json report.r_switches));
          ] );
      ("checks", Workload.checks_json (checks report));
    ]

let to_table report =
  let table =
    Table.create
      ~title:
        (Printf.sprintf "M1: protocol matrix, %d auditors + %d updaters over %d accounts"
           report.r_config.auditors report.r_config.updaters report.r_config.accounts)
      ~header:
        [ "protocol"; "commits"; "aborts"; "ro-aborts(aud)"; "mv-reads"; "ctl-commits"; "ops/Mc" ]
  in
  List.iter
    (fun a ->
      Table.add_row table
        [
          Protocol.to_string a.a_protocol;
          string_of_int a.a_commits;
          string_of_int a.a_aborts;
          string_of_int a.a_auditor_aborts;
          string_of_int a.a_mv_hist_reads;
          string_of_int a.a_ctl_commits;
          Printf.sprintf "%.1f" a.a_throughput;
        ])
    report.r_arms;
  table
