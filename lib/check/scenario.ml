(* Checker workloads.  A scenario builds a fresh system per schedule
   (fresh engine, partitions, tvars, history recorder) so runs are
   independent and replays exact: every source of randomness inside a
   scenario is a fixed function of worker index and iteration, never of
   wall clock or scheduling.  Invariant checks run after the simulation
   and must hold under fault injection too (a killed worker simply stops
   issuing transactions; atomicity keeps every invariant preserved). *)

open Partstm_stm
open Partstm_core
open Partstm_structures

type instance = {
  bodies : (int -> unit) list;
  engine : Engine.t;
  history : History.t;
  check : unit -> string list;  (* invariant violations, post-run *)
}

type t = { name : string; fibers : int; make : unit -> instance }

(* -- Bank transfers --------------------------------------------------------
   [workers] fibers move money between [accounts] accounts with a
   deterministic, deliberately overlapping pattern.  With [observer] two
   more fibers join: a read-only observer summing all accounts, and an
   auditor that also *writes* the sum to a summary tvar.  The auditor
   matters for mutation coverage: an update transaction whose read set
   exceeds its write set is exactly the shape that only commit-time
   validation protects (reads adjacent to writes are already guarded by
   encounter-time locking and extension).  Invariants: the total is
   conserved and every observed/audited sum equals the total. *)

let bank ?(mode = Mode.make ()) ?(accounts = 3) ?(workers = 3) ?(transfers = 4) ?(observer = true)
    ~name () =
  let fibers = workers + if observer then 2 else 0 in
  let make () =
    let system = System.create ~max_workers:fibers () in
    let history = History.create () in
    History.attach history (System.engine system);
    let partition = System.partition system "bank" ~mode ~tunable:false in
    let initial = 100 in
    let accts = Array.init accounts (fun _ -> System.tvar partition initial) in
    let summary = System.tvar partition (initial * accounts) in
    let total = initial * accounts in
    let bad_sums = ref [] in
    let worker i _fiber =
      let txn = System.descriptor system ~worker_id:i in
      for k = 1 to transfers do
        let src = (i + k) mod accounts in
        let dst = (src + 1) mod accounts in
        let amount = 1 + ((i + (3 * k)) mod 7) in
        System.atomically txn (fun t ->
            System.write t accts.(src) (System.read t accts.(src) - amount);
            System.write t accts.(dst) (System.read t accts.(dst) + amount))
      done
    in
    let observer_body _fiber =
      let txn = System.descriptor system ~worker_id:workers in
      for _ = 1 to transfers do
        let sum =
          System.atomically txn (fun t ->
              Array.fold_left (fun acc a -> acc + System.read t a) 0 accts)
        in
        if sum <> total then bad_sums := sum :: !bad_sums
      done
    in
    let auditor_body _fiber =
      let txn = System.descriptor system ~worker_id:(workers + 1) in
      for _ = 1 to transfers do
        let sum =
          System.atomically txn (fun t ->
              let sum = Array.fold_left (fun acc a -> acc + System.read t a) 0 accts in
              System.write t summary sum;
              sum)
        in
        if sum <> total then bad_sums := sum :: !bad_sums
      done
    in
    let bodies =
      List.init workers (fun i -> worker i)
      @ if observer then [ observer_body; auditor_body ] else []
    in
    let check () =
      let final = Array.fold_left (fun acc a -> acc + Tvar.peek a) 0 accts in
      (if final <> total then
         [ Fmt.str "conservation violated: accounts sum to %d, expected %d" final total ]
       else [])
      @ List.rev_map
          (fun s -> Fmt.str "observer read inconsistent sum %d (expected %d)" s total)
          !bad_sums
    in
    { bodies; engine = System.engine system; history; check }
  in
  { name; fibers; make }

(* -- Producer/consumer queue ----------------------------------------------
   Producers enqueue tagged items; consumers drain with bounded
   non-blocking attempts (so a killed producer never wedges the run).
   Invariant: consumed + left-over = produced, as multisets. *)

let queue ~name () =
  let producers = 2 and consumers = 2 and items = 4 in
  let fibers = producers + consumers in
  let make () =
    let system = System.create ~max_workers:fibers () in
    let history = History.create () in
    History.attach history (System.engine system);
    let partition = System.partition system "queue" ~tunable:false in
    let q = Tqueue.make partition in
    let produced = Array.make producers [] in
    let consumed = Array.make consumers [] in
    let producer i _fiber =
      let txn = System.descriptor system ~worker_id:i in
      for k = 1 to items do
        let item = (i * 1000) + k in
        System.atomically txn (fun t -> Tqueue.enqueue t q item);
        produced.(i) <- item :: produced.(i)
      done
    in
    let consumer j _fiber =
      let txn = System.descriptor system ~worker_id:(producers + j) in
      for _ = 1 to producers * items do
        match System.atomically txn (fun t -> Tqueue.dequeue t q) with
        | Some v -> consumed.(j) <- v :: consumed.(j)
        | None -> ()
      done
    in
    let bodies =
      List.init producers (fun i -> producer i) @ List.init consumers (fun j -> consumer j)
    in
    let check () =
      let sort = List.sort compare in
      let produced_all = sort (List.concat (Array.to_list produced)) in
      let consumed_all = List.concat (Array.to_list consumed) in
      let outcome = sort (consumed_all @ Tqueue.peek_to_list q) in
      if outcome <> produced_all then
        [
          Fmt.str "queue lost or duplicated items: produced %a, accounted %a"
            Fmt.(Dump.list int)
            produced_all
            Fmt.(Dump.list int)
            outcome;
        ]
      else []
    in
    { bodies; engine = System.engine system; history; check }
  in
  { name; fibers; make }

(* -- Mid-run reconfiguration ----------------------------------------------
   Bank workers plus a tuner fiber that walks the partition through mode
   changes (granularity swaps force lock-table replacement, visibility
   and update-strategy flips change the code paths) while transfers are
   in flight.  Exercises quiesce and the oracle's generation handling. *)

let reconfigure ?modes ?(workers = 3) ?(transfers = 4) ~name () =
  let modes =
    match modes with
    | Some modes -> modes
    | None ->
        [
          Mode.make ~granularity_log2:0 ();
          Mode.make ~visibility:Mode.Visible ();
          Mode.make ~update:Mode.Write_through ~granularity_log2:2 ();
          Mode.make ();
        ]
  in
  let fibers = workers + 2 (* observer + tuner *) in
  let make () =
    let system = System.create ~max_workers:fibers () in
    let history = History.create () in
    History.attach history (System.engine system);
    let partition = System.partition system "bank" ~tunable:false in
    let initial = 100 in
    let accounts = 3 in
    let accts = Array.init accounts (fun _ -> System.tvar partition initial) in
    let total = initial * accounts in
    let bad_sums = ref [] in
    let worker i _fiber =
      let txn = System.descriptor system ~worker_id:i in
      for k = 1 to transfers do
        let src = (i + k) mod accounts in
        let dst = (src + 1) mod accounts in
        let amount = 1 + ((i + (3 * k)) mod 7) in
        System.atomically txn (fun t ->
            System.write t accts.(src) (System.read t accts.(src) - amount);
            System.write t accts.(dst) (System.read t accts.(dst) + amount))
      done
    in
    let observer _fiber =
      let txn = System.descriptor system ~worker_id:workers in
      for _ = 1 to transfers do
        let sum =
          System.atomically txn (fun t ->
              Array.fold_left (fun acc a -> acc + System.read t a) 0 accts)
        in
        if sum <> total then bad_sums := sum :: !bad_sums
      done
    in
    let tuner _fiber =
      List.iter
        (fun mode ->
          Partstm_util.Runtime_hook.charge (Partstm_util.Runtime_hook.Step 50);
          Partition.set_mode partition mode)
        modes
    in
    let bodies = List.init workers (fun i -> worker i) @ [ observer; tuner ] in
    let check () =
      let final = Array.fold_left (fun acc a -> acc + Tvar.peek a) 0 accts in
      (if final <> total then
         [ Fmt.str "conservation violated: accounts sum to %d, expected %d" final total ]
       else [])
      @ List.rev_map
          (fun s -> Fmt.str "observer read inconsistent sum %d (expected %d)" s total)
          !bad_sums
    in
    { bodies; engine = System.engine system; history; check }
  in
  { name; fibers; make }

(* -- Mixed modes -----------------------------------------------------------
   Two partitions with different configurations and transfers that cross
   them: one transaction spans an invisible write-back region and a
   visible write-through one.  Conservation holds across both. *)

let mixed_modes ?(workers = 3) ?(transfers = 4) ~name () =
  let fibers = workers + 1 in
  let make () =
    let system = System.create ~max_workers:fibers () in
    let history = History.create () in
    History.attach history (System.engine system);
    let p_inv = System.partition system "inv" ~mode:(Mode.make ()) ~tunable:false in
    let p_vis =
      System.partition system "vis"
        ~mode:(Mode.make ~visibility:Mode.Visible ~update:Mode.Write_through ())
        ~tunable:false
    in
    let initial = 100 in
    let a = System.tvar p_inv initial and b = System.tvar p_vis initial in
    let total = 2 * initial in
    let bad_sums = ref [] in
    let worker i _fiber =
      let txn = System.descriptor system ~worker_id:i in
      for k = 1 to transfers do
        let amount = 1 + ((i + k) mod 5) in
        let src, dst = if (i + k) mod 2 = 0 then (a, b) else (b, a) in
        System.atomically txn (fun t ->
            System.write t src (System.read t src - amount);
            System.write t dst (System.read t dst + amount))
      done
    in
    let observer _fiber =
      let txn = System.descriptor system ~worker_id:workers in
      for _ = 1 to transfers do
        let sum = System.atomically txn (fun t -> System.read t a + System.read t b) in
        if sum <> total then bad_sums := sum :: !bad_sums
      done
    in
    let bodies = List.init workers (fun i -> worker i) @ [ observer ] in
    let check () =
      let final = Tvar.peek a + Tvar.peek b in
      (if final <> total then
         [ Fmt.str "conservation violated: accounts sum to %d, expected %d" final total ]
       else [])
      @ List.rev_map
          (fun s -> Fmt.str "observer read inconsistent sum %d (expected %d)" s total)
          !bad_sums
    in
    { bodies; engine = System.engine system; history; check }
  in
  { name; fibers; make }

(* -- Mixed protocols -------------------------------------------------------
   Three partitions running the three concurrency-control protocols
   (DESIGN.md §10): multi-version, commit-time-lock and single-version,
   with transfers that cross protocol boundaries in one transaction and a
   read-only observer spanning all three.  The cross-protocol shape is
   the point: one transaction mixes orec-versioned reads with
   value-validated ones and (depending on timing) a frozen multi-version
   snapshot, so the staleness discipline and the joint commit-time
   validation both carry load here. *)

let mixed_protocols ?(workers = 3) ?(transfers = 4) ~name () =
  let fibers = workers + 1 in
  let make () =
    let system = System.create ~max_workers:fibers () in
    let history = History.create () in
    History.attach history (System.engine system);
    let p_mv =
      System.partition system "mv"
        ~mode:(Mode.make ~protocol:(Protocol.Multi_version { depth = 4 }) ())
        ~tunable:false
    in
    let p_ctl =
      System.partition system "ctl"
        ~mode:(Mode.make ~protocol:Protocol.Commit_time_lock ())
        ~tunable:false
    in
    let p_sv = System.partition system "sv" ~tunable:false in
    let initial = 100 in
    let a = System.tvar p_mv initial
    and b = System.tvar p_ctl initial
    and c = System.tvar p_sv initial in
    let total = 3 * initial in
    let bad_sums = ref [] in
    let worker i _fiber =
      let txn = System.descriptor system ~worker_id:i in
      for k = 1 to transfers do
        let amount = 1 + ((i + k) mod 5) in
        let src, dst =
          match (i + k) mod 3 with 0 -> (a, b) | 1 -> (b, c) | _ -> (c, a)
        in
        System.atomically txn (fun t ->
            System.write t src (System.read t src - amount);
            System.write t dst (System.read t dst + amount))
      done
    in
    let observer _fiber =
      let txn = System.descriptor system ~worker_id:workers in
      for _ = 1 to transfers do
        let sum =
          System.atomically txn (fun t ->
              System.read t a + System.read t b + System.read t c)
        in
        if sum <> total then bad_sums := sum :: !bad_sums
      done
    in
    let bodies = List.init workers (fun i -> worker i) @ [ observer ] in
    let check () =
      let final = Tvar.peek a + Tvar.peek b + Tvar.peek c in
      (if final <> total then
         [ Fmt.str "conservation violated: accounts sum to %d, expected %d" final total ]
       else [])
      @ List.rev_map
          (fun s -> Fmt.str "observer read inconsistent sum %d (expected %d)" s total)
          !bad_sums
    in
    { bodies; engine = System.engine system; history; check }
  in
  { name; fibers; make }

let bank_invisible = bank ~name:"bank-invisible" ()
let bank_visible = bank ~mode:(Mode.make ~visibility:Mode.Visible ()) ~name:"bank-visible" ()

let bank_write_through =
  bank
    ~mode:(Mode.make ~update:Mode.Write_through ())
    ~accounts:2 ~workers:2 ~name:"bank-write-through" ()

(* Multi-version bank: workers' update transactions begin with a read, so
   a concurrent commit between begin and first read routes them through
   the history path — exactly where the staleness discipline (and its
   seeded mutant) lives.  Depth 4 keeps enough versions for the history
   lookup to hit rather than miss. *)
let bank_multi_version =
  bank
    ~mode:(Mode.make ~protocol:(Protocol.Multi_version { depth = 4 }) ())
    ~name:"bank-multi-version" ()

(* Commit-time-lock bank: small and hot, so transactions routinely commit
   with [wv > rv + 1] and the value-revalidation pass actually runs. *)
let bank_commit_lock =
  bank
    ~mode:(Mode.make ~protocol:Protocol.Commit_time_lock ())
    ~accounts:2 ~workers:2 ~name:"bank-commit-lock" ()

(* -- Commit-time-lock mirror -----------------------------------------------
   The shape whose ONLY line of defence is commit-time value revalidation.
   In the bank, a stale commit-time-lock read is always caught early: the
   transaction either performs a later ctl read (whose sequence-word
   mismatch branch revalidates, independent of the commit-time pass) or
   writes the very slot the concurrent writer needs (encounter-time orec
   locking excludes the race).  Here the mirrorer reads [a] and writes
   only [b] — no later read, no orec overlap at the fatal moment — so a
   concurrent incrementer can slip a full commit between the read and the
   mirrorer's commit, and nothing but the commit-time value check stands
   in the way.  Invariants: a == b (a stale mirror publishes an old [a]
   over a fresh [b]), and [a] covers the committed increments (an
   incrementer pair racing on the same window loses an update).  The
   increment count is one-sided: a fault-injection kill between commit
   and count leaves [a] ahead of the count, never behind. *)

let ctl_mirror ~name () =
  let incrementers = 2 and mirrorers = 1 and iterations = 2 in
  let fibers = incrementers + mirrorers in
  let make () =
    let system = System.create ~max_workers:fibers () in
    let history = History.create () in
    History.attach history (System.engine system);
    let p =
      System.partition system "ctl"
        ~mode:(Mode.make ~protocol:Protocol.Commit_time_lock ())
        ~tunable:false
    in
    let a = System.tvar p 0 and b = System.tvar p 0 in
    let committed = Array.make incrementers 0 in
    let incrementer i _fiber =
      let txn = System.descriptor system ~worker_id:i in
      for _ = 1 to iterations do
        System.atomically txn (fun t ->
            System.write t a (System.read t a + 1);
            System.write t b (System.read t b + 1));
        committed.(i) <- committed.(i) + 1
      done
    in
    let mirrorer j _fiber =
      let txn = System.descriptor system ~worker_id:(incrementers + j) in
      for _ = 1 to iterations do
        System.atomically txn (fun t -> System.write t b (System.read t a))
      done
    in
    let bodies =
      List.init incrementers (fun i -> incrementer i)
      @ List.init mirrorers (fun j -> mirrorer j)
    in
    let check () =
      let va = Tvar.peek a and vb = Tvar.peek b in
      let incs = Array.fold_left ( + ) 0 committed in
      (if va <> vb then [ Fmt.str "mirror broken: a = %d, b = %d" va vb ] else [])
      @
      if va < incs then
        [ Fmt.str "lost increment: a = %d after %d committed increments" va incs ]
      else []
    in
    { bodies; engine = System.engine system; history; check }
  in
  { name; fibers; make }

let ctl_mirror_default = ctl_mirror ~name:"ctl-mirror" ()

let queue_default = queue ~name:"queue" ()
let reconfigure_default = reconfigure ~name:"reconfigure" ()

(* Mid-run protocol transitions: the tuner walks the partition across all
   three protocols (plus a granularity swap under multi-version), so
   epoch invalidation of cached histories and the seqlock's quiescent
   idleness are exercised while transfers are in flight. *)
let protocol_reconfigure_default =
  reconfigure
    ~modes:
      [
        Mode.make ~protocol:(Protocol.Multi_version { depth = 2 }) ();
        Mode.make ~protocol:Protocol.Commit_time_lock ();
        Mode.make ~granularity_log2:0 ~protocol:(Protocol.Multi_version { depth = 4 }) ();
        Mode.make ();
      ]
    ~name:"protocol-reconfigure" ()

let mixed_modes_default = mixed_modes ~name:"mixed-modes" ()
let mixed_protocols_default = mixed_protocols ~name:"mixed-protocols" ()

let all =
  [
    bank_invisible;
    bank_visible;
    bank_write_through;
    bank_multi_version;
    bank_commit_lock;
    ctl_mirror_default;
    queue_default;
    reconfigure_default;
    protocol_reconfigure_default;
    mixed_modes_default;
    mixed_protocols_default;
  ]

let find name = List.find_opt (fun s -> s.name = name) all

(* The workload on which each seeded bug is observable (DESIGN.md §9). *)
let for_bug = function
  | Bug.Skip_commit_validation -> bank_invisible
  | Bug.Skip_extension_validation -> bank_invisible
  | Bug.Skip_reader_drain -> bank_visible
  | Bug.Skip_undo_log -> bank_write_through
  | Bug.Mv_skip_stale_check -> bank_multi_version
  | Bug.Ctl_skip_validation -> ctl_mirror_default
