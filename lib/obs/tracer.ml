(* Structured per-attempt transaction tracing (DESIGN.md §8.2).

   The tracer is an [Engine] tap: it turns the engine's event stream into
   one *span* per transaction attempt (begin → reads/writes → validation →
   commit/abort), carrying the outcome, the abort cause, read/write counts,
   the first-touched region, and retry-chain linkage (consecutive
   conflicted attempts of one descriptor form a chain that ends at a
   commit or an explicit retry).

   Storage is per-shard ring buffers, sharded by descriptor id.  Each
   descriptor is driven by exactly one worker, so a shard has a single
   writer as long as descriptor ids do not collide modulo the shard count
   (1024, which makes collisions impossible below 1024 descriptors per
   engine; a collision can only corrupt *counts*, never memory).
   Shards are created lazily, so the default geometry costs only one
   pointer array until descriptors actually run.

   Sampling: with [sample_every = n > 1] each attempt is kept with
   probability 1/n, decided at begin from a per-shard deterministic [Rng]
   stream — so a Simulated-backend run samples the same attempts every
   time.  The aggregates (attempt/commit/abort counts and the per-region
   heatmap and histograms below) are always exact; sampling only thins the
   stored spans.

   The tracer watches attempts, not accesses: an attempt's read and write
   counts and its region arrive with its commit or abort, totalled by the
   descriptor, so the engine never calls the tracer on a read or a write.

   Timestamps come from an installable clock: virtual cycles on the
   Simulated backend, monotonic-ish nanoseconds since run start on
   Domains ([Driver.run ?tracer] installs it).  The default clock is the
   constant 0, which keeps the tracer usable (counts, causes, chains)
   where no clock makes sense.

   Alongside the spans, each shard keeps exact per-region aggregates:
   - a heatmap keyed by [Lock_table] slot — how often each orec failed a
     lock acquisition, timed out draining visible readers, or failed
     read-set validation (validation failures that cannot be attributed to
     a slot are counted separately so totals still reconcile with the
     engine's [Region_stats] counters);
   - latency histograms: commit phase (commit entry → locks released,
     update transactions only), abort (begin → rollback) and lock-wait
     spins per acquisition.
   Conflict counts go to the region the conflict event names.  Latencies
   go to the attempt's region (the first region it touched), so every
   abort that touched a region lands in exactly one abort histogram.  The
   engine charges a validation failure to the region of the *triggering*
   access while the conflict event names the region of the *stale read*;
   the two differ only for transactions spanning several partitions,
   where per-region splits may differ from [Region_stats] even though
   global totals agree. *)

open Partstm_util
open Partstm_stm

type outcome = Committed | Aborted of Engine.abort_cause

type span = {
  sp_txn : int;
  sp_worker : int;
  sp_shard : int;
  sp_chain : int;  (* retry-chain sequence number, unique within the shard *)
  sp_attempt : int;  (* 1-based position within the chain *)
  sp_begin : int;
  sp_commit_begin : int;  (* -1 when the attempt never entered commit *)
  sp_end : int;
  sp_outcome : outcome;
  sp_rv : int;
  sp_stamp : int;  (* commit stamp, -1 otherwise *)
  sp_reads : int;
  sp_writes : int;
  sp_region : int;  (* first-touched region, -1 when none *)
}

let dummy_span =
  {
    sp_txn = -1;
    sp_worker = -1;
    sp_shard = -1;
    sp_chain = 0;
    sp_attempt = 0;
    sp_begin = 0;
    sp_commit_begin = -1;
    sp_end = 0;
    sp_outcome = Committed;
    sp_rv = 0;
    sp_stamp = -1;
    sp_reads = 0;
    sp_writes = 0;
    sp_region = -1;
  }

type slot_counts = {
  mutable sc_lock : int;
  mutable sc_reader : int;
  mutable sc_validation : int;
}

(* Exact per-region aggregates; also the accumulator [summary] merges into. *)
type region_agg = {
  slots : (int, slot_counts) Hashtbl.t;
  commit_h : Histogram.t;
  abort_h : Histogram.t;
  lock_wait_h : Histogram.t;
  mutable unattributed_validation : int;
}

type shard = {
  sh_index : int;
  ring : span array;
  mutable oldest : int;  (* position of the oldest stored span *)
  mutable len : int;
  mutable dropped : int;  (* spans evicted by the ring *)
  rng : Rng.t;
  (* in-progress attempt *)
  mutable c_active : bool;
  mutable c_sampled : bool;
  mutable c_txn : int;
  mutable c_worker : int;
  mutable c_begin : int;
  mutable c_commit_begin : int;
  mutable c_rv : int;
  mutable c_cause : Engine.abort_cause option;
  (* retry-chain state *)
  mutable chain : int;
  mutable chain_open : bool;
  mutable chain_attempt : int;
  (* exact aggregate counters, independent of sampling and eviction *)
  mutable attempts : int;
  mutable committed : int;
  mutable aborted : int;
  regions : (int, region_agg) Hashtbl.t;
}

type decision = {
  d_time : int;
  d_partition : string;
  d_from : string;
  d_to : string;
}

type t = {
  shards : shard option array;
  ring_capacity : int;
  sample_every : int;
  seed : int;
  mutable clock : unit -> int;
  mutable decisions : decision list;  (* newest first *)
  decisions_mutex : Mutex.t;
  mutable tap : (Engine.t * int) option;
}

let default_clock () = 0

let shard_count = 1024

let create ?(ring_capacity = 4096) ?(sample_every = 1) ?(seed = 0x0B5EC0DE) () =
  if ring_capacity <= 0 then invalid_arg "Tracer.create: ring_capacity";
  if sample_every <= 0 then invalid_arg "Tracer.create: sample_every";
  {
    shards = Array.make shard_count None;
    ring_capacity;
    sample_every;
    seed;
    clock = default_clock;
    decisions = [];
    decisions_mutex = Mutex.create ();
    tap = None;
  }

let sample_every t = t.sample_every
let set_clock t clock = t.clock <- clock
let clear_clock t = t.clock <- default_clock

let make_shard t index =
  {
    sh_index = index;
    ring = Array.make t.ring_capacity dummy_span;
    oldest = 0;
    len = 0;
    dropped = 0;
    rng = Rng.split (Rng.make t.seed) ~index;
    c_active = false;
    c_sampled = false;
    c_txn = -1;
    c_worker = -1;
    c_begin = 0;
    c_commit_begin = -1;
    c_rv = 0;
    c_cause = None;
    chain = 0;
    chain_open = false;
    chain_attempt = 0;
    attempts = 0;
    committed = 0;
    aborted = 0;
    regions = Hashtbl.create 8;
  }

let shard_of t txn =
  let i = txn mod Array.length t.shards in
  let i = if i < 0 then i + Array.length t.shards else i in
  match t.shards.(i) with
  | Some s -> s
  | None ->
      let s = make_shard t i in
      t.shards.(i) <- Some s;
      s

let region_agg regions region =
  match Hashtbl.find_opt regions region with
  | Some r -> r
  | None ->
      let r =
        {
          slots = Hashtbl.create 32;
          commit_h = Histogram.create ();
          abort_h = Histogram.create ();
          lock_wait_h = Histogram.create ();
          unattributed_validation = 0;
        }
      in
      Hashtbl.add regions region r;
      r

let slot_counts r slot =
  match Hashtbl.find_opt r.slots slot with
  | Some c -> c
  | None ->
      let c = { sc_lock = 0; sc_reader = 0; sc_validation = 0 } in
      Hashtbl.add r.slots slot c;
      c

let push_span s span =
  let cap = Array.length s.ring in
  if s.len < cap then begin
    s.ring.((s.oldest + s.len) mod cap) <- span;
    s.len <- s.len + 1
  end
  else begin
    (* Ring full: overwrite the oldest span and account for the loss. *)
    s.ring.(s.oldest) <- span;
    s.oldest <- (s.oldest + 1) mod cap;
    s.dropped <- s.dropped + 1
  end

(* -- Engine-tap callbacks ------------------------------------------------ *)

let on_begin t ~txn ~worker ~rv =
  let s = shard_of t txn in
  s.attempts <- s.attempts + 1;
  if not s.chain_open then begin
    s.chain <- s.chain + 1;
    s.chain_attempt <- 0;
    s.chain_open <- true
  end;
  s.chain_attempt <- s.chain_attempt + 1;
  s.c_active <- true;
  s.c_sampled <- t.sample_every <= 1 || Rng.int s.rng t.sample_every = 0;
  s.c_txn <- txn;
  s.c_worker <- worker;
  s.c_begin <- t.clock ();
  s.c_commit_begin <- -1;
  s.c_rv <- rv;
  s.c_cause <- None

(* Later events are matched on the descriptor id: if a colliding descriptor
   overwrote the shard's in-progress state, the stale transaction's events
   are ignored instead of corrupting the new span. *)
let is_current s txn = s.c_active && s.c_txn = txn

(* Heatmap counts are keyed on the event alone, not on the in-progress
   attempt, so a descriptor collision cannot lose a conflict. *)
let count_conflict s ~cause ~region ~slot =
  let r = region_agg s.regions region in
  let bump f = if slot >= 0 then f (slot_counts r slot) in
  match (cause : Engine.abort_cause) with
  | Engine.Lock_busy -> bump (fun c -> c.sc_lock <- c.sc_lock + 1)
  | Engine.Reader_wait -> bump (fun c -> c.sc_reader <- c.sc_reader + 1)
  | Engine.Validation ->
      if slot >= 0 then bump (fun c -> c.sc_validation <- c.sc_validation + 1)
      else r.unattributed_validation <- r.unattributed_validation + 1
  | Engine.Explicit_retry | Engine.Exception_unwind -> ()

let on_conflict t ~txn ~cause ~region ~slot =
  let s = shard_of t txn in
  if region >= 0 then count_conflict s ~cause ~region ~slot;
  if is_current s txn then s.c_cause <- Some cause

let on_lock_wait t ~txn ~region ~slot:_ ~spins =
  let s = shard_of t txn in
  Histogram.observe (region_agg s.regions region).lock_wait_h spins

let on_commit_begin t ~txn =
  let s = shard_of t txn in
  if is_current s txn then s.c_commit_begin <- t.clock ()

let finish_span s ~outcome ~stamp ~now ~reads ~writes ~region =
  if s.c_sampled then
    push_span s
      {
        sp_txn = s.c_txn;
        sp_worker = s.c_worker;
        sp_shard = s.sh_index;
        sp_chain = s.chain;
        sp_attempt = s.chain_attempt;
        sp_begin = s.c_begin;
        sp_commit_begin = s.c_commit_begin;
        sp_end = now;
        sp_outcome = outcome;
        sp_rv = s.c_rv;
        sp_stamp = stamp;
        sp_reads = reads;
        sp_writes = writes;
        sp_region = region;
      };
  s.c_active <- false

let on_commit t ~txn ~stamp ~reads ~writes ~region =
  let s = shard_of t txn in
  if is_current s txn then begin
    let now = t.clock () in
    s.committed <- s.committed + 1;
    s.chain_open <- false;
    if s.c_commit_begin >= 0 && region >= 0 then
      Histogram.observe (region_agg s.regions region).commit_h (now - s.c_commit_begin);
    finish_span s ~outcome:Committed ~stamp ~now ~reads ~writes ~region
  end

let on_abort t ~txn ~reads ~writes ~region =
  let s = shard_of t txn in
  if is_current s txn then begin
    let now = t.clock () in
    s.aborted <- s.aborted + 1;
    if region >= 0 then Histogram.observe (region_agg s.regions region).abort_h (now - s.c_begin);
    (* Every engine abort path reports its cause before unwinding; an
       absent cause can only mean a tap raced a collision, so fall back to
       the least specific one. *)
    let cause = Option.value s.c_cause ~default:Engine.Exception_unwind in
    (* An explicit retry parks the descriptor and starts over: the next
       attempt is a fresh chain, not a continuation of this one. *)
    if cause = Engine.Explicit_retry then s.chain_open <- false;
    finish_span s ~outcome:(Aborted cause) ~stamp:(-1) ~now ~reads ~writes ~region
  end

let recorder t =
  {
    Engine.null_recorder with
    Engine.rec_begin = (fun ~txn ~worker ~rv -> on_begin t ~txn ~worker ~rv);
    rec_conflict = (fun ~txn ~cause ~region ~slot -> on_conflict t ~txn ~cause ~region ~slot);
    rec_lock_wait = (fun ~txn ~region ~slot ~spins -> on_lock_wait t ~txn ~region ~slot ~spins);
    rec_commit_begin = (fun ~txn -> on_commit_begin t ~txn);
    rec_commit =
      (fun ~txn ~stamp ~reads ~writes ~region -> on_commit t ~txn ~stamp ~reads ~writes ~region);
    rec_abort = (fun ~txn ~reads ~writes ~region -> on_abort t ~txn ~reads ~writes ~region);
  }

let attach t engine =
  if t.tap <> None then invalid_arg "Tracer.attach: already attached";
  t.tap <- Some (engine, Engine.add_tap engine (recorder t))

let detach t =
  match t.tap with
  | None -> ()
  | Some (engine, handle) ->
      Engine.remove_tap engine handle;
      t.tap <- None

(* -- Tuner-decision instants --------------------------------------------- *)

let record_decision t ~partition ~from_mode ~to_mode =
  let d =
    { d_time = t.clock (); d_partition = partition; d_from = from_mode; d_to = to_mode }
  in
  Mutex.lock t.decisions_mutex;
  t.decisions <- d :: t.decisions;
  Mutex.unlock t.decisions_mutex

let decisions t = List.rev t.decisions

(* -- Accessors ------------------------------------------------------------ *)

let fold_shards t f acc =
  Array.fold_left (fun acc -> function None -> acc | Some s -> f acc s) acc t.shards

let attempts t = fold_shards t (fun acc s -> acc + s.attempts) 0
let committed t = fold_shards t (fun acc s -> acc + s.committed) 0
let aborted t = fold_shards t (fun acc s -> acc + s.aborted) 0
let dropped_spans t = fold_shards t (fun acc s -> acc + s.dropped) 0
let kept_spans t = fold_shards t (fun acc s -> acc + s.len) 0

let spans t =
  let collect acc s =
    let cap = Array.length s.ring in
    let rec loop i acc =
      if i >= s.len then acc else loop (i + 1) (s.ring.((s.oldest + i) mod cap) :: acc)
    in
    loop 0 acc
  in
  let all = fold_shards t collect [] in
  (* Chronological; shard rings are already ordered, the sort merges them.
     Ties (identical timestamps, common under the default zero clock) keep
     a deterministic order via the full key. *)
  List.sort
    (fun a b ->
      let c = compare a.sp_begin b.sp_begin in
      if c <> 0 then c
      else
        let c = compare (a.sp_worker, a.sp_shard) (b.sp_worker, b.sp_shard) in
        if c <> 0 then c else compare (a.sp_chain, a.sp_attempt) (b.sp_chain, b.sp_attempt))
    all

let outcome_label = function
  | Committed -> "committed"
  | Aborted cause -> "aborted-" ^ Engine.cause_to_string cause

let pp_span ppf sp =
  Fmt.pf ppf "t%d w%d chain=%d.%d [%d..%d] %s r=%d w=%d" sp.sp_txn sp.sp_worker sp.sp_chain
    sp.sp_attempt sp.sp_begin sp.sp_end (outcome_label sp.sp_outcome) sp.sp_reads sp.sp_writes

(* -- Per-region aggregates -------------------------------------------------- *)

type slot_total = {
  st_region : int;
  st_slot : int;
  st_lock : int;
  st_reader : int;
  st_validation : int;
}

let slot_weight st = st.st_lock + st.st_reader + st.st_validation

type region_summary = {
  rs_region : int;
  rs_slots : slot_total list;  (* descending by weight *)
  rs_lock_fails : int;
  rs_reader_fails : int;
  rs_validation_fails : int;  (* slot-attributed + unattributed *)
  rs_unattributed_validation : int;
  rs_commit : Histogram.t;
  rs_abort : Histogram.t;
  rs_lock_wait : Histogram.t;
}

let by_weight a b =
  let c = compare (slot_weight b) (slot_weight a) in
  if c <> 0 then c else compare (a.st_region, a.st_slot) (b.st_region, b.st_slot)

let summary t =
  let merged = Hashtbl.create 8 in
  fold_shards t
    (fun () s ->
      Hashtbl.iter
        (fun region r ->
          let m = region_agg merged region in
          Hashtbl.iter
            (fun slot c ->
              let mc = slot_counts m slot in
              mc.sc_lock <- mc.sc_lock + c.sc_lock;
              mc.sc_reader <- mc.sc_reader + c.sc_reader;
              mc.sc_validation <- mc.sc_validation + c.sc_validation)
            r.slots;
          Histogram.merge_into ~dst:m.commit_h r.commit_h;
          Histogram.merge_into ~dst:m.abort_h r.abort_h;
          Histogram.merge_into ~dst:m.lock_wait_h r.lock_wait_h;
          m.unattributed_validation <- m.unattributed_validation + r.unattributed_validation)
        s.regions)
    ();
  Hashtbl.fold
    (fun region m acc ->
      let slots =
        Hashtbl.fold
          (fun slot c l ->
            {
              st_region = region;
              st_slot = slot;
              st_lock = c.sc_lock;
              st_reader = c.sc_reader;
              st_validation = c.sc_validation;
            }
            :: l)
          m.slots []
        |> List.sort by_weight
      in
      let sum f = List.fold_left (fun n st -> n + f st) 0 slots in
      {
        rs_region = region;
        rs_slots = slots;
        rs_lock_fails = sum (fun st -> st.st_lock);
        rs_reader_fails = sum (fun st -> st.st_reader);
        rs_validation_fails = sum (fun st -> st.st_validation) + m.unattributed_validation;
        rs_unattributed_validation = m.unattributed_validation;
        rs_commit = m.commit_h;
        rs_abort = m.abort_h;
        rs_lock_wait = m.lock_wait_h;
      }
      :: acc)
    merged []
  |> List.sort (fun a b -> compare a.rs_region b.rs_region)

let hot_slots ?(top_k = 10) t =
  summary t
  |> List.concat_map (fun rs -> rs.rs_slots)
  |> List.sort by_weight
  |> List.filteri (fun i _ -> i < top_k)

let to_json ?(name_of_region = string_of_int) t =
  Json.List
    (List.map
       (fun rs ->
         Json.Obj
           [
             ("partition", Json.String (name_of_region rs.rs_region));
             ("region", Json.Int rs.rs_region);
             ("lock_fails", Json.Int rs.rs_lock_fails);
             ("reader_fails", Json.Int rs.rs_reader_fails);
             ("validation_fails", Json.Int rs.rs_validation_fails);
             ("unattributed_validation", Json.Int rs.rs_unattributed_validation);
             ("commit_latency", Histogram.to_json rs.rs_commit);
             ("abort_latency", Histogram.to_json rs.rs_abort);
             ("lock_wait_spins", Histogram.to_json rs.rs_lock_wait);
             ( "hot_slots",
               Json.List
                 (List.filteri (fun i _ -> i < 32) rs.rs_slots
                 |> List.map (fun st ->
                        Json.Obj
                          [
                            ("slot", Json.Int st.st_slot);
                            ("lock", Json.Int st.st_lock);
                            ("reader", Json.Int st.st_reader);
                            ("validation", Json.Int st.st_validation);
                          ])) );
           ])
       (summary t))
