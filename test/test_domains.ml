(* Tests for the Domains backend productionization: cache-line padding
   primitives, exact (race-free) statistics accounting under real domains,
   the per-domain descriptor pool, the zero-allocation transaction fast
   path, fast-index parity under true parallelism, the retry hook that
   lets the driver's deadline countdown observe aborted attempts, and online
   reconfiguration under concurrent transactions.

   These tests spawn real domains.  On a single-core host they still
   exercise every cross-domain code path (preemptive interleaving), just
   without parallel speed-up — which none of them asserts. *)

open Partstm_util
open Partstm_stm
open Partstm_core
open Partstm_harness
open Partstm_workloads

let check = Alcotest.check

(* -- Padding primitives ---------------------------------------------------- *)

let test_padding_layout () =
  let a = Padding.atomic_int 7 in
  check Alcotest.int "block spans a full cache line" Padding.cache_line_words
    (Padding.block_words a);
  check Alcotest.int "initial value" 7 (Atomic.get a);
  Atomic.set a 9;
  check Alcotest.int "set/get" 9 (Atomic.get a);
  check Alcotest.int "fetch_and_add returns previous" 9 (Atomic.fetch_and_add a 3);
  check Alcotest.int "fetch_and_add applied" 12 (Atomic.get a);
  check Alcotest.bool "compare_and_set succeeds" true (Atomic.compare_and_set a 12 1);
  check Alcotest.bool "compare_and_set honours expected" false (Atomic.compare_and_set a 5 2);
  check Alcotest.int "final value" 1 (Atomic.get a)

let test_padding_array () =
  let arr = Padding.atomic_array ~len:4 0 in
  check Alcotest.int "length" 4 (Array.length arr);
  Array.iteri (fun i a -> Atomic.set a i) arr;
  Array.iteri (fun i a -> check Alcotest.int "cells are independent" i (Atomic.get a)) arr

(* -- Exact statistics accounting under real domains ------------------------- *)

(* Four domains, each committing a known number of transactions.  With the
   striped (single-writer-per-stripe) counters the totals must be EXACT:
   commits = sum of per-worker commits.  The racy pre-fix counters lost
   updates here on multicore hosts and drifted. *)
let test_stats_exact_under_domains () =
  let workers = 4 and per_worker = 2_000 in
  let system = System.create ~max_workers:8 () in
  let p = System.partition system "stress" in
  let slots = Array.init workers (fun _ -> System.tvar p 0) in
  let domains =
    List.init workers (fun id ->
        Domain.spawn (fun () ->
            let txn = System.descriptor system ~worker_id:id in
            for _ = 1 to per_worker do
              System.atomically txn (fun t ->
                  System.write t slots.(id) (System.read t slots.(id) + 1))
            done))
  in
  List.iter Domain.join domains;
  let snap = Partition.snapshot p in
  check Alcotest.int "commits = sum of per-worker commits, exactly"
    (workers * per_worker) snap.Region_stats.s_commits;
  check Alcotest.bool "aborts never negative" true (snap.Region_stats.s_aborts >= 0);
  let txn = System.descriptor system ~worker_id:workers in
  Array.iter
    (fun v ->
      check Alcotest.int "every increment persisted" per_worker
        (System.atomically txn (fun t -> System.read t v)))
    slots

(* Same exactness through the driver: operations counted by the workers
   must equal the partition's commit counter. *)
let test_driver_exact_accounting () =
  let system = System.create ~max_workers:8 () in
  let p = System.partition system "drv" in
  let slots = Array.init 2 (fun _ -> System.tvar p 0) in
  let worker ctx =
    let txn = System.descriptor system ~worker_id:ctx.Driver.worker_id in
    System.set_retry_hook txn ctx.Driver.attempt_tick;
    let v = slots.(ctx.Driver.worker_id) in
    let ops = ref 0 in
    while not (ctx.Driver.should_stop ()) do
      System.atomically txn (fun t -> System.write t v (System.read t v + 1));
      incr ops
    done;
    !ops
  in
  let result = Driver.run ~mode:(Driver.Domains { seconds = 0.2 }) ~workers:2 worker in
  let snap = Partition.snapshot p in
  check Alcotest.bool "did some work" true (result.Driver.total_ops > 0);
  check Alcotest.int "worker ops = partition commits, exactly" result.Driver.total_ops
    snap.Region_stats.s_commits

(* -- Per-domain descriptor pool --------------------------------------------- *)

let test_domain_pool () =
  let system = System.create ~max_workers:8 () in
  let d0 = System.domain_descriptor system in
  let d0' = System.domain_descriptor system in
  check Alcotest.bool "same domain, same descriptor" true (d0 == d0');
  check Alcotest.int "pooled ids start at max_workers - 1" 7 (Txn.worker_id d0);
  let spawned_ids =
    List.map Domain.join
      (List.init 2 (fun _ ->
           Domain.spawn (fun () ->
               let a = System.domain_descriptor system in
               let b = System.domain_descriptor system in
               check Alcotest.bool "stable within the domain" true (a == b);
               Txn.worker_id a)))
  in
  let all = Txn.worker_id d0 :: spawned_ids in
  check Alcotest.int "one stripe per domain, no sharing"
    (List.length all)
    (List.length (List.sort_uniq compare all));
  List.iter
    (fun id -> check Alcotest.bool "pooled ids stay above the manual range" true (id >= 5))
    all;
  let other = System.create ~max_workers:8 () in
  check Alcotest.bool "pools are per system" true (System.domain_descriptor other != d0)

(* -- Zero-allocation fast path ---------------------------------------------- *)

(* After pool and read-set warm-up, a committed read-only transaction must
   not allocate: no closure boxing in [atomically], no per-commit closures,
   no fresh region entries.  Measured inside a spawned domain so the minor
   counter sees only this domain's allocation.  The budget of 64 words over
   10_000 transactions (< 0.01 words/txn) leaves room for the float boxed
   by [Gc.minor_words] itself while failing loudly on any per-transaction
   allocation.  The always-on metrics plane must keep it so: its tap
   watches attempts only and its matrix is read off the stripes. *)
let zero_alloc_probe ~with_plane () =
  let system = System.create ~max_workers:4 () in
  let p = System.partition system "alloc" in
  let v = System.tvar p 1 and w = System.tvar p 2 in
  let plane = Metrics_plane.create (System.registry system) in
  if with_plane then Metrics_plane.attach plane;
  let delta =
    Domain.join
      (Domain.spawn (fun () ->
           let txn = System.domain_descriptor system in
           let body t = System.read t v + System.read t w in
           for _ = 1 to 256 do
             ignore (System.atomically txn body)
           done;
           let before = Gc.minor_words () in
           for _ = 1 to 10_000 do
             ignore (System.atomically txn body)
           done;
           Gc.minor_words () -. before))
  in
  if with_plane then Metrics_plane.detach plane;
  check Alcotest.bool
    (Printf.sprintf "10k warm read-only txns allocated %.0f minor words (budget 64)" delta)
    true
    (delta <= 64.0)

(* A 1-in-64 tracer keeps warm read-only transactions allocation-free apart
   from the spans it keeps: it watches begins and commits only, takes the
   read count from the commit, and an unsampled attempt allocates nothing.
   A kept span is one record (~15 words), so the budget is 1 word per
   transaction whatever the read count. *)
let rec sum_reads t tvars i acc =
  if i = Array.length tvars then acc else sum_reads t tvars (i + 1) (acc + System.read t tvars.(i))

let test_tracer_alloc () =
  List.iter
    (fun reads ->
      let system = System.create ~max_workers:4 () in
      let p = System.partition system "alloc-traced" in
      let tvars = Array.init reads (fun i -> System.tvar p i) in
      let tracer = Partstm_obs.Tracer.create ~sample_every:64 () in
      Partstm_obs.Tracer.attach tracer (System.engine system);
      let words =
        Domain.join
          (Domain.spawn (fun () ->
               let txn = System.domain_descriptor system in
               let body t = sum_reads t tvars 0 0 in
               for _ = 1 to 256 do
                 ignore (System.atomically txn body)
               done;
               let before = Gc.minor_words () in
               for _ = 1 to 10_000 do
                 ignore (System.atomically txn body)
               done;
               Gc.minor_words () -. before))
      in
      Partstm_obs.Tracer.detach tracer;
      check Alcotest.bool
        (Printf.sprintf "10k warm %d-read txns, 1-in-64 tracer: %.0f minor words (budget 10000)"
           reads words)
        true (words <= 10_000.0))
    [ 2; 16 ]

(* [count] tvars of [p] on pairwise-distinct orecs. *)
let distinct_slot_tvars p ~count =
  let table = (Partition.region p).Region.table in
  let seen = Hashtbl.create count in
  let rec gather acc n =
    if n = count then Array.of_list (List.rev acc)
    else
      let tv = System.tvar p 1 in
      let slot = Lock_table.slot_of_id table tv.Tvar.id in
      if Hashtbl.mem seen slot then gather acc n
      else begin
        Hashtbl.add seen slot ();
        gather (tv :: acc) (n + 1)
      end
  in
  gather [] 0

(* A read set past the initial capacity of the descriptor's dedup index
   and int logs: 100 tvars on distinct orecs, so every read adds an entry.
   Growth happens during warm-up; afterwards the logs are reused, 10k
   transactions stay within the same 64-word budget, and a committed
   transaction pins nothing. *)
let test_large_read_set_alloc () =
  let system = System.create ~max_workers:4 () in
  let p = System.partition system "alloc-reads" in
  let tvars = distinct_slot_tvars p ~count:100 in
  let words, resident =
    Domain.join
      (Domain.spawn (fun () ->
           let txn = System.domain_descriptor system in
           let body t = sum_reads t tvars 0 0 in
           for _ = 1 to 256 do
             ignore (System.atomically txn body)
           done;
           let before = Gc.minor_words () in
           for _ = 1 to 10_000 do
             ignore (System.atomically txn body)
           done;
           (Gc.minor_words () -. before, Txn.debug_resident txn)))
  in
  check Alcotest.bool
    (Printf.sprintf "10k warm 100-read txns allocated %.0f minor words (budget 64)" words)
    true (words <= 64.0);
  check Alcotest.int "nothing pinned after commit" 0 resident

(* Warm update transactions on one domain: each writes [writes] tvars of
   one partition in [mode].  Returns the minor words allocated by 10k
   transactions after warm-up.  Descriptor logs hold data, not closures:
   a write-back write logs the tvar itself (unboxed, 0 words), a
   write-through write one 3-word undo block, and a multi-version write
   its history cell and states. *)
let update_alloc_probe ~mode ~writes =
  let system = System.create ~max_workers:4 () in
  let p = System.partition system ~mode "alloc-update" in
  let tvars = Array.init writes (fun i -> System.tvar p i) in
  Domain.join
    (Domain.spawn (fun () ->
         let txn = System.domain_descriptor system in
         let body t =
           for i = 0 to writes - 1 do
             System.write t tvars.(i) (System.read t tvars.(i) + 1)
           done
         in
         for _ = 1 to 256 do
           System.atomically txn body
         done;
         let before = Gc.minor_words () in
         for _ = 1 to 10_000 do
           System.atomically txn body
         done;
         Gc.minor_words () -. before))

let check_update_budget ~name ~mode ~budget =
  List.iter
    (fun writes ->
      let words = update_alloc_probe ~mode ~writes in
      let limit = budget ~writes in
      check Alcotest.bool
        (Printf.sprintf "%s: 10k warm %d-write txns allocated %.0f minor words (budget %.0f)" name
           writes words limit)
        true (words <= limit))
    [ 1; 16 ]

let txns = 10_000.0

let test_write_back_alloc () =
  check_update_budget ~name:"write-back sv" ~mode:Mode.default ~budget:(fun ~writes:_ -> 64.0)

let test_write_through_alloc () =
  check_update_budget ~name:"write-through sv"
    ~mode:(Mode.make ~update:Mode.Write_through ())
    ~budget:(fun ~writes -> (3.0 *. float_of_int writes *. txns) +. 64.0)

let test_multi_version_alloc () =
  check_update_budget ~name:"mv8"
    ~mode:(Mode.make ~protocol:(Protocol.Multi_version { depth = 8 }) ())
    ~budget:(fun ~writes -> 20.0 *. float_of_int writes *. txns)

(* -- Descriptor indexes under real domains ---------------------------------- *)

(* The descriptor's indexed lookups must stay correct under true
   cross-domain contention, not just sequentially (test_stm covers that):
   money conserved, and commit accounting exact. *)
let test_transfers_domains () =
  let workers = 4 and per_worker = 1_000 and n_accounts = 32 in
  let system = System.create ~max_workers:8 () in
  let p = System.partition system "acct" in
  let accounts = Array.init n_accounts (fun _ -> System.tvar p 100) in
  let domains =
    List.init workers (fun id ->
        Domain.spawn (fun () ->
            let txn = System.descriptor system ~worker_id:id in
            let rng = Rng.make (0xD0D0 + id) in
            for _ = 1 to per_worker do
              let a = Rng.int rng n_accounts in
              let b = Rng.int rng n_accounts in
              let amount = 1 + Rng.int rng 5 in
              System.atomically txn (fun t ->
                  System.write t accounts.(a) (System.read t accounts.(a) - amount);
                  System.write t accounts.(b) (System.read t accounts.(b) + amount))
            done))
  in
  List.iter Domain.join domains;
  let snap = Partition.snapshot p in
  let txn = System.descriptor system ~worker_id:workers in
  let total =
    System.atomically txn (fun t ->
        Array.fold_left (fun acc v -> acc + System.read t v) 0 accounts)
  in
  check Alcotest.int "money conserved" (n_accounts * 100) total;
  check Alcotest.int "commits exact" (workers * per_worker) snap.Region_stats.s_commits

(* -- Reconfiguration under load ---------------------------------------------- *)

(* Two domains run bank transfers while the main domain flips the
   partition's granularity: money is conserved, nothing is left registered
   in flight, no transaction sees the region's lock table change under it,
   and every orec of each new table starts at or above the version its
   [rec_generation] event announced (the table is built before the freeze
   and restamped inside it when the clock moved meanwhile). *)
let test_reconfigure_under_load () =
  let workers = 2 and flips = 200 and n_accounts = 16 in
  let system = System.create ~max_workers:4 () in
  let engine = System.engine system in
  let p = System.partition system ~tunable:false "acct" in
  let region = Partition.region p in
  let generation = Atomic.make (-1) and generations = Atomic.make 0 in
  ignore
    (Engine.add_tap engine
       {
         Engine.null_recorder with
         rec_generation =
           (fun ~region:id ~version ->
             if id = region.Region.id then begin
               Atomic.set generation version;
               Atomic.incr generations
             end);
       });
  let accounts = Array.init n_accounts (fun _ -> System.tvar p 100) in
  let stop = Atomic.make false and torn = Atomic.make 0 and running = Atomic.make 0 in
  let domains =
    List.init workers (fun id ->
        Domain.spawn (fun () ->
            let txn = System.descriptor system ~worker_id:id in
            let rng = Rng.make (0x5EED + id) in
            Atomic.incr running;
            while not (Atomic.get stop) do
              let a = Rng.int rng n_accounts and b = Rng.int rng n_accounts in
              System.atomically txn (fun t ->
                  let table = region.Region.table in
                  System.write t accounts.(a) (System.read t accounts.(a) - 1);
                  System.write t accounts.(b) (System.read t accounts.(b) + 1);
                  if region.Region.table != table then Atomic.incr torn)
            done))
  in
  (* Flip only once both workers are transacting. *)
  while Atomic.get running < workers do
    Domain.cpu_relax ()
  done;
  let stale = ref 0 in
  for i = 1 to flips do
    Partition.set_mode p (Mode.make ~granularity_log2:(if i land 1 = 1 then 6 else 4) ());
    Engine.quiesce engine (fun () ->
        let floor = Atomic.get generation in
        Array.iter
          (fun w ->
            let word = Atomic.get w in
            if Orec.is_locked word || Orec.version word < floor then incr stale)
          region.Region.table.Lock_table.words)
  done;
  Atomic.set stop true;
  List.iter Domain.join domains;
  let txn = System.descriptor system ~worker_id:workers in
  let total =
    System.atomically txn (fun t ->
        Array.fold_left (fun acc v -> acc + System.read t v) 0 accounts)
  in
  check Alcotest.int "money conserved" (n_accounts * 100) total;
  check Alcotest.int "nothing in flight" 0 (Engine.inflight engine);
  check Alcotest.int "one generation per flip" flips (Atomic.get generations);
  check Alcotest.int "no table swap seen in flight" 0 (Atomic.get torn);
  check Alcotest.int "no orec below its generation" 0 !stale

(* -- Retry hook -------------------------------------------------------------- *)

let test_retry_hook_unit () =
  let system = System.create () in
  let p = System.partition system "rh" in
  let v = System.tvar p 0 in
  let txn = System.descriptor system ~worker_id:0 in
  let hooks = ref 0 in
  System.set_retry_hook txn (fun () -> incr hooks);
  let attempts =
    System.atomically txn (fun t ->
        let cur = System.read t v in
        if Txn.attempt t <= 2 then raise Txn.Abort;
        System.write t v (cur + 1);
        Txn.attempt t)
  in
  check Alcotest.int "committed on the third attempt" 3 attempts;
  check Alcotest.int "hook ran once per rollback" 2 !hooks;
  check Alcotest.int "exactly one increment survived" 1
    (System.atomically txn (fun t -> System.read t v))

(* Every operation aborts three times before committing; wired through the
   driver, the retry hook must (a) keep the run terminating promptly
   (aborted attempts burn the deadline countdown) and (b) account aborts
   exactly: 3 per committed operation, and the stats agree. *)
let test_driver_livelock_observes_deadline () =
  let system = System.create ~max_workers:4 () in
  let p = System.partition system "lv" in
  let v = System.tvar p 0 in
  let aborts = Atomic.make 0 in
  let worker ctx =
    let txn = System.descriptor system ~worker_id:ctx.Driver.worker_id in
    System.set_retry_hook txn (fun () ->
        Atomic.incr aborts;
        ctx.Driver.attempt_tick ());
    let ops = ref 0 in
    while not (ctx.Driver.should_stop ()) do
      System.atomically txn (fun t ->
          let cur = System.read t v in
          if Txn.attempt t <= 3 then raise Txn.Abort;
          System.write t v (cur + 1));
      incr ops
    done;
    !ops
  in
  let result = Driver.run ~mode:(Driver.Domains { seconds = 0.15 }) ~workers:1 worker in
  let snap = Partition.snapshot p in
  check Alcotest.bool "made progress" true (result.Driver.total_ops > 0);
  check Alcotest.int "three aborts per committed op"
    (3 * result.Driver.total_ops)
    (Atomic.get aborts);
  check Alcotest.int "abort statistic matches the hook count" (Atomic.get aborts)
    snap.Region_stats.s_aborts;
  check Alcotest.int "commit statistic matches ops" result.Driver.total_ops
    snap.Region_stats.s_commits

(* -- Scaling bench engine smoke --------------------------------------------- *)

let test_scaling_run_once () =
  let s = Scaling.run_once ~padded:true ~workers:1 ~seconds:0.05 ~seed:7 in
  check Alcotest.int "workers recorded" 1 s.Scaling.s_workers;
  check Alcotest.bool "arm recorded" true s.Scaling.s_padded;
  check Alcotest.bool "committed something" true (s.Scaling.s_commits > 0);
  check Alcotest.bool "throughput positive" true (s.Scaling.s_commits_per_sec > 0.0);
  check Alcotest.bool "elapsed sane" true (s.Scaling.s_elapsed > 0.0)

let () =
  Alcotest.run "domains"
    [
      ( "padding",
        [
          Alcotest.test_case "layout and atomic ops" `Quick test_padding_layout;
          Alcotest.test_case "padded array" `Quick test_padding_array;
        ] );
      ( "stats",
        [
          Alcotest.test_case "exact accounting, 4 domains" `Quick test_stats_exact_under_domains;
          Alcotest.test_case "exact accounting via driver" `Quick test_driver_exact_accounting;
        ] );
      ("pool", [ Alcotest.test_case "per-domain descriptors" `Quick test_domain_pool ]);
      ( "alloc",
        [
          Alcotest.test_case "read-only fast path is allocation-free" `Quick
            (zero_alloc_probe ~with_plane:false);
          Alcotest.test_case "allocation-free with the metrics plane attached" `Quick
            (zero_alloc_probe ~with_plane:true);
          Alcotest.test_case "write-back update path is allocation-free" `Quick
            test_write_back_alloc;
          Alcotest.test_case "write-through allocates only its undo log" `Quick
            test_write_through_alloc;
          Alcotest.test_case "mv8 update path within 20 words per write" `Quick
            test_multi_version_alloc;
          Alcotest.test_case "1-in-64 tracer allocates only its kept spans" `Quick
            test_tracer_alloc;
          Alcotest.test_case "100-read read set is allocation-free" `Quick
            test_large_read_set_alloc;
        ] );
      ( "transfers",
        [ Alcotest.test_case "indexed descriptors under domains" `Quick test_transfers_domains ] );
      ( "retry-hook",
        [
          Alcotest.test_case "fires once per rollback" `Quick test_retry_hook_unit;
          Alcotest.test_case "driver deadline under livelock" `Quick
            test_driver_livelock_observes_deadline;
        ] );
      ("scaling", [ Alcotest.test_case "run_once smoke" `Quick test_scaling_run_once ]);
      ( "reconfig",
        [ Alcotest.test_case "granularity flips under load" `Quick test_reconfigure_under_load ] );
    ]
