(* An STM engine instance: the global version clock plus id generators and
   engine-wide configuration.  Multiple independent engines can coexist
   (tests use fresh engines for isolation). *)

(* Per-transaction event tap (the checker's history recorder and the
   tracing/profiling layer, see lib/check and lib/obs).  No tap installed
   is the common case: every hook site is one load and one branch.  All
   identifiers are plain ints so the engine stays recorder-agnostic:
   [txn] is the descriptor id, [worker] the descriptor's worker id,
   [region]/[slot] name an orec, versions and stamps come from the global
   clock. *)

(* Why a conflict aborted an attempt.  [slot] is -1 when the failure has
   no single orec (e.g. a commit-time-lock value check or a frozen
   multi-version snapshot). *)
type abort_cause =
  | Lock_busy  (* orec write-locked by another transaction *)
  | Reader_wait  (* visible-reader drain timed out *)
  | Validation  (* read-set validation failed (extension or commit) *)
  | Explicit_retry  (* user called [Txn.retry] *)
  | Exception_unwind  (* a user exception rolled the transaction back *)

let cause_to_string = function
  | Lock_busy -> "lock-busy"
  | Reader_wait -> "reader-wait"
  | Validation -> "validation"
  | Explicit_retry -> "retry"
  | Exception_unwind -> "exception"

type recorder = {
  rec_begin : txn:int -> worker:int -> rv:int -> unit;
  rec_read : txn:int -> region:int -> slot:int -> version:int -> unit;
  rec_write : txn:int -> region:int -> slot:int -> unit;
  rec_commit : txn:int -> stamp:int -> reads:int -> writes:int -> region:int -> unit;
  rec_abort : txn:int -> reads:int -> writes:int -> region:int -> unit;
      (* the attempt's totals from the descriptor: [reads] counts the
         [rec_read] sites, [writes] the [rec_write] sites, [region] is the
         first region the attempt activated (-1 when none) *)
  rec_generation : region:int -> version:int -> unit;
      (* a region (re)created its lock table; fresh slots carry [version] *)
  rec_conflict : txn:int -> cause:abort_cause -> region:int -> slot:int -> unit;
      (* fired at the point of failure, before the abort unwinds; exactly
         once per Region_stats conflict-counter increment *)
  rec_lock_wait : txn:int -> region:int -> slot:int -> spins:int -> unit;
      (* a write lock was acquired after [spins] CAS retries + reader-drain
         spins (0 = uncontended) *)
  rec_commit_begin : txn:int -> unit;
      (* an update transaction entered its commit sequence *)
}

(* A recorder whose every field ignores its arguments; build taps with
   [{ null_recorder with rec_... }] so adding hook sites does not break
   existing sinks. *)
let null_recorder =
  {
    rec_begin = (fun ~txn:_ ~worker:_ ~rv:_ -> ());
    rec_read = (fun ~txn:_ ~region:_ ~slot:_ ~version:_ -> ());
    rec_write = (fun ~txn:_ ~region:_ ~slot:_ -> ());
    rec_commit = (fun ~txn:_ ~stamp:_ ~reads:_ ~writes:_ ~region:_ -> ());
    rec_abort = (fun ~txn:_ ~reads:_ ~writes:_ ~region:_ -> ());
    rec_generation = (fun ~region:_ ~version:_ -> ());
    rec_conflict = (fun ~txn:_ ~cause:_ ~region:_ ~slot:_ -> ());
    rec_lock_wait = (fun ~txn:_ ~region:_ ~slot:_ ~spins:_ -> ());
    rec_commit_begin = (fun ~txn:_ -> ());
  }

type t = {
  clock : int Atomic.t;
  tvar_counter : int Atomic.t;
  descriptor_counter : int Atomic.t;
  region_counter : int Atomic.t;
  state : int Atomic.t;
      (* 1 while a reconfiguration is quiescing, else 0 *)
  inflight_slots : int Atomic.t array;
      (* one in-flight counter per worker id.  A transaction increments its
         worker's slot once at begin and decrements it at commit/abort; a
         reconfiguration sets [state], waits for every slot to read 0,
         swaps, and clears [state]. *)
  max_workers : int;
  contention_manager : Cm.t;
  max_attempts : int;
  padded : bool;
      (* hot shared words (clock, in-flight state, orec words, reader
         counters) live on their own cache lines; [false] is the packed
         baseline, kept for A/B (see bench/exp_d1) *)
  mutable recorder : recorder option;
      (* the composed fan-out over [taps]; attempt hooks read this field *)
  mutable access : recorder option;
      (* the fan-out over the taps that override [rec_read] or [rec_write];
         the read and write hook sites read this field *)
  mutable taps : (int * recorder) list;  (* attach order; ids never reused *)
  mutable tap_counter : int;
}

(* A writer should outwait a reader mid-traversal (hundreds of cycles)
   rather than abort — visible readers drain quickly because new readers
   abort against the held write lock. *)
let writer_wait_limit = 512

let sample_retry_limit = 64

let create ?(max_workers = 64) ?(contention_manager = Cm.default) ?(max_attempts = 1_000_000)
    ?(padded = true) () =
  if max_workers <= 0 then invalid_arg "Engine.create: max_workers";
  (* The clock is the one globally contended word of the whole engine
     (every commit ticks it): keep it on its own cache line.  The freeze
     word is read by every begin but written only by a reconfiguration, so
     it stays shared in every reader's cache.  Each in-flight slot is
     written by one worker at every begin and end: padding keeps the
     workers' slots off each other's lines.  The id counters are cold
     (allocation-time only) and stay packed. *)
  let hot initial =
    if padded then Partstm_util.Padding.atomic_int initial else Atomic.make initial
  in
  {
    clock = hot 0;
    tvar_counter = Atomic.make 0;
    descriptor_counter = Atomic.make 0;
    region_counter = Atomic.make 0;
    state = hot 0;
    inflight_slots = Array.init max_workers (fun _ -> hot 0);
    max_workers;
    contention_manager;
    max_attempts;
    padded;
    recorder = None;
    access = None;
    taps = [];
    tap_counter = 0;
  }

(* -- Tap fan-out ---------------------------------------------------------

   Several independent sinks (the checker's history recorder, the tracer,
   the metrics plane's latency tap) can observe one engine at the same
   time.  Each [add_tap] recomposes the two fields that the hook sites
   read: [recorder] over every tap, and [access] over only the taps that
   override a per-access hook ([rec_read], [rec_write]) — in practice the
   checker's history alone, so the tracer and the metrics plane cost the
   reads and writes nothing.  No taps costs the historical
   one-load-one-branch, a single tap is called directly, and only multiple
   taps pay a fan-out closure per event.  Attaching/detaching must happen
   while no transaction is in flight (taps are installed before workers
   start). *)

let watches_access r =
  r.rec_read != null_recorder.rec_read || r.rec_write != null_recorder.rec_write

let compose = function
  | [] -> None
  | [ (_, r) ] -> Some r
  | taps ->
      let each f = List.iter (fun (_, r) -> f r) taps in
      Some
        {
          rec_begin = (fun ~txn ~worker ~rv -> each (fun r -> r.rec_begin ~txn ~worker ~rv));
          rec_read =
            (fun ~txn ~region ~slot ~version ->
              each (fun r -> r.rec_read ~txn ~region ~slot ~version));
          rec_write = (fun ~txn ~region ~slot -> each (fun r -> r.rec_write ~txn ~region ~slot));
          rec_commit =
            (fun ~txn ~stamp ~reads ~writes ~region ->
              each (fun r -> r.rec_commit ~txn ~stamp ~reads ~writes ~region));
          rec_abort =
            (fun ~txn ~reads ~writes ~region ->
              each (fun r -> r.rec_abort ~txn ~reads ~writes ~region));
          rec_generation =
            (fun ~region ~version -> each (fun r -> r.rec_generation ~region ~version));
          rec_conflict =
            (fun ~txn ~cause ~region ~slot ->
              each (fun r -> r.rec_conflict ~txn ~cause ~region ~slot));
          rec_lock_wait =
            (fun ~txn ~region ~slot ~spins ->
              each (fun r -> r.rec_lock_wait ~txn ~region ~slot ~spins));
          rec_commit_begin = (fun ~txn -> each (fun r -> r.rec_commit_begin ~txn));
        }

let set_taps t taps =
  t.taps <- taps;
  t.recorder <- compose taps;
  t.access <- compose (List.filter (fun (_, r) -> watches_access r) taps)

let add_tap t recorder =
  let id = t.tap_counter in
  t.tap_counter <- id + 1;
  set_taps t (t.taps @ [ (id, recorder) ]);
  id

let remove_tap t id = set_taps t (List.filter (fun (tap_id, _) -> tap_id <> id) t.taps)

let taps t = List.map fst t.taps

let now t = Atomic.get t.clock

(* Advance the clock and return the new (unique) commit version.  The
   guards below fail closed: a version or a descriptor id past what an
   orec word encodes (Orec) would alias an older one. *)
let tick t =
  let version = Atomic.fetch_and_add t.clock 1 + 1 in
  if version > Orec.max_version then failwith "Engine.tick: version clock exhausted";
  version

let next_tvar_id t = Atomic.fetch_and_add t.tvar_counter 1

let next_descriptor_id t =
  let id = Atomic.fetch_and_add t.descriptor_counter 1 in
  if id > Orec.max_owner then failwith "Engine.next_descriptor_id: descriptor ids exhausted";
  id
let next_region_id t = Atomic.fetch_and_add t.region_counter 1

let rec sum_slots slots i acc =
  if i < 0 then acc else sum_slots slots (i - 1) (acc + Atomic.get slots.(i))

let inflight t = sum_slots t.inflight_slots (Array.length t.inflight_slots - 1) 0
let is_frozen t = Atomic.get t.state <> 0

(* Register an in-flight transaction on [worker]'s slot; spins while a
   reconfiguration is quiescing (brief: a few loads and stores under the
   freeze).  Increment first, then read the freeze word: OCaml atomics are
   sequentially consistent, so either this read sees the freeze (and the
   worker backs out) or the quiescer's later scan sees the increment.  A
   backed-out worker waits with loads only, so its slot stays 0 while the
   quiescer scans.  Under the simulator [enter] costs one [First_touch]
   plus one [relax] per frozen observation; the slot operations charge
   nothing, so schedules do not depend on the slot layout. *)
(* Top-level recursion (not a local [let rec] closure): [enter] runs once
   per transaction on the zero-allocation fast path, and a local loop
   capturing [t] would allocate its closure every call. *)
let rec enter_loop t slot =
  Atomic.incr slot;
  if Atomic.get t.state <> 0 then begin
    Atomic.decr slot;
    Partstm_util.Runtime_hook.relax ();
    wait_unfrozen t slot
  end

and wait_unfrozen t slot =
  if Atomic.get t.state <> 0 then begin
    Partstm_util.Runtime_hook.relax ();
    wait_unfrozen t slot
  end
  else enter_loop t slot

let enter t ~worker =
  Partstm_util.Runtime_hook.charge Partstm_util.Runtime_hook.First_touch;
  enter_loop t t.inflight_slots.(worker)

let leave t ~worker =
  let previous = Atomic.fetch_and_add t.inflight_slots.(worker) (-1) in
  assert (previous > 0)

(* Run [f] with the engine quiesced: no transaction is in flight while [f]
   executes.  At most one quiesce at a time (the tuner is single-threaded);
   the caller must not be inside a transaction.  The whole protocol runs
   under [Runtime_hook.critical]: a fault-injection kill landing between
   freeze and unfreeze would wedge every other worker, which is a harness
   artefact, not a schedule the engine can experience. *)
let quiesce t f =
  let result = ref None in
  Partstm_util.Runtime_hook.critical (fun () ->
      if not (Atomic.compare_and_set t.state 0 1) then
        invalid_arg "Engine.quiesce: concurrent reconfiguration";
      while inflight t > 0 do
        Partstm_util.Runtime_hook.relax ()
      done;
      Fun.protect ~finally:(fun () -> Atomic.set t.state 0) (fun () -> result := Some (f ())));
  match !result with Some v -> v | None -> assert false
