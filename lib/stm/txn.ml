(* Transaction engine: TinySTM/LSA-style word-based STM with encounter-time
   write locking, write-back buffering, a global version clock with timestamp
   extension for invisible reads, and strict-2PL visible reads — selected
   per region (DESIGN.md §3).

   Algorithm summary
   -----------------
   Invisible read: double-sample the orec around the value load; a version
   newer than the transaction's read version [rv] triggers a timestamp
   extension (full read-set validation at the current clock).  Reads are thus
   always consistent as of [rv] (opacity).

   Visible read: increment the orec's reader counter before checking the
   lock; a writer that acquires the lock waits for readers to drain and
   aborts itself on timeout, so a held visible read behaves like a shared
   lock (strict 2PL) and needs no commit-time validation.  Visible reads
   still consult the orec version so that a mixed-visibility transaction
   keeps one consistent snapshot (the extension covers the invisible part).

   Write: acquire the orec's write lock at encounter time, buffer the value
   in the tvar's [pending] slot (the lock makes this private), publish all
   buffered values at commit under a fresh clock version.

   Commit: read-only transactions commit immediately (invisible reads were
   validated on the fly, visible reads are 2PL).  Update transactions take a
   new version [wv] from the clock, validate the read set unless
   [wv = rv + 1], write back, and release locks at version [wv]. *)

open Partstm_util

exception Abort
(* Internal control flow: conflict detected, roll back and retry. *)

exception Retry
(* User-requested blocking retry: wait until something read changes. *)

exception Too_many_attempts of int

type region_entry = {
  re_region : Region.t;
  re_index : int;  (* stable position in the descriptor's [entries]; keys carry it *)
  mutable re_config : Region.config;  (* cached at activation; stable while in-flight *)
  mutable re_ctl_snap : int;
      (* commit-time-lock sequence snapshot this txn's reads in the region
         are consistent with; -1 before the first such read *)
  mutable re_ctl_held : int;
      (* sequence value captured by a commit-time seqlock acquire, -1 when
         not held; rollback must abandon, commit must release *)
  re_stripe : Region_stats.stripe;  (* stable: region stats outlive reconfigs *)
  mutable re_writes : int;  (* writes by this txn in this region *)
  mutable re_epoch : int;  (* txn epoch of last activation; see [enter_region] *)
}

(* A (tvar, value) pair with the value type forgotten: one 3-word block
   per entry, no closure.  The write-through undo log holds the value to
   restore; the commit-time-lock read log holds the value to revalidate.
   Descriptor logs hold data, not closures (DESIGN.md §3.2). *)
type logged = Logged : 'a Tvar.t * 'a -> logged

type t = {
  engine : Engine.t;
  id : int;  (* descriptor id, stored in owned orecs *)
  worker_id : int;
  rng : Rng.t;
  mutable rv : int;  (* read version (snapshot timestamp) *)
  mutable active : bool;
  mutable attempt : int;
  (* Pooled region entries: one per region this descriptor EVER touched
     (made once at first-ever touch, at index [re_index] of this array),
     reused by every later transaction.  An entry is active in the current
     transaction iff [re_epoch = txn_epoch]; [txn_epoch] is bumped at
     transaction end, which deactivates every entry without walking or
     reallocating the array.  The steady-state begin/read/commit path
     therefore allocates nothing. *)
  mutable entries : region_entry array;  (* [0, entry_count) used; the rest is filler *)
  mutable entry_count : int;
  mutable txn_epoch : int;
  (* Scalar fallback for conflict attribution (the historical "head of the
     regions list"): the most recently activated entry's region id and
     stripe; and the first region activated in the attempt, reported with
     the attempt's totals.  All three valid iff [cur_epoch = txn_epoch]. *)
  mutable cur_region_id : int;
  mutable cur_stripe : Region_stats.stripe;
  mutable first_region_id : int;
  mutable cur_epoch : int;
  mutable reads : int;  (* reads reported this attempt (the [record_read] calls) *)
  (* Invoked after every rollback inside [atomically]'s retry loop, so a
     harness deadline can be observed even by a livelocked worker that
     never returns from [atomically] (Driver wires its countdown here). *)
  mutable retry_hook : (unit -> unit) option;
  (* Int-keyed logs: every read, lock and visible hold is one orec key,
     [(re_index lsl slot_bits) lor slot], resolved through the entry's
     cached table when the orec word or reader counter is needed (see
     [orec_word]).  Pushing an int needs no write barrier, and nothing is
     wiped at transaction end. *)
  read_keys : Intvec.t;  (* invisible read set: orec keys ... *)
  read_observed : Intvec.t;  (* ... and the unlocked word observed *)
  lock_keys : Intvec.t;  (* owned write locks; each word carries its pre-lock version *)
  vis_keys : Intvec.t;  (* held visible-reader counters *)
  writes : Tvar.any Vec.t;
      (* write-back set: each tvar's buffered value is in its [pending]
         slot, so the log needs the tvar only *)
  undo : logged Vec.t;  (* write-through undo log, replayed in reverse *)
  mutable last_serialization : int;  (* stamp of the last committed txn *)
  (* -- Protocol state (DESIGN.md §10) --
     [mv_stale]: some read was served from a multi-version history, so the
     snapshot is frozen at [rv]: extension and writes must abort (only
     read-only transactions benefit from history reads).  [mv_inhibit]
     disables history serving for the descriptor's next attempts after an
     abort while stale (prevents history-induced retry livelock); cleared
     on success.  [commit_wv] carries the commit version into the
     publish phase (multi-version publish needs it).  [ctl_checks] is the
     commit-time-lock read log: each such read's tvar and the value it
     returned, revalidated by physical equality. *)
  mutable mv_stale : bool;
  mutable mv_inhibit : bool;
  mutable commit_wv : int;
  ctl_checks : logged Vec.t;
  (* Descriptor indexes (DESIGN.md §3.1).  Index lookups and Bloom tests
     charge no simulated cycles, so they cost host time only and never
     shape a deterministic-sim schedule. *)
  mutable read_bloom : int;
      (* one-word Bloom filter over [read_keys]: a read whose bits miss it
         is new, and is logged with no lookup *)
  read_index : Intmap.t;
      (* key -> latest read-set position; built only once the read set
         outgrows [dedup_scan_max] (shorter sets are scanned) *)
  vis_index : Intmap.t;  (* key -> vis_keys position *)
  mutable own_bloom : int;
      (* one-word Bloom filter over held visible-reader counters: a zero
         intersection proves non-membership, so [holds_visible] answers
         with one [land] and no index probe while nothing is held *)
  mutable publish_phase : unit -> unit;
  mutable rollback_phase : unit -> unit;
      (* the commit's publish/release and the rollback's undo/release
         sequences, closed over this descriptor once at [create] so that
         passing them to [Runtime_hook.critical] allocates nothing *)
}

(* Fillers for the typed logs' unused capacity, the entry array's spare
   slots and [cur_stripe] before any region is activated; never read
   through (the logs read only [0, length), the entries [0, entry_count),
   [cur_stripe] is guarded by [cur_epoch]).  One private region, shared by
   all descriptors: an unpadded single-worker engine and a one-orec table
   keep it to a few hundred bytes per process. *)
let dummy_region =
  Region.create
    (Engine.create ~max_workers:1 ~padded:false ())
    ~name:"txn-log-filler"
    ~mode:(Mode.make ~granularity_log2:Mode.granularity_min ())
    ()

let dummy_tvar = Tvar.make dummy_region ()
let dummy_any = Tvar.Any dummy_tvar
let dummy_logged = Logged (dummy_tvar, ())
let dummy_stripe = Region_stats.stripe dummy_region.Region.stats 0

let dummy_entry =
  {
    re_region = dummy_region;
    re_index = -1;
    re_config = dummy_region.Region.config;
    re_ctl_snap = -1;
    re_ctl_held = -1;
    re_stripe = dummy_stripe;
    re_writes = 0;
    re_epoch = 0;
  }

let no_phase () = ()

let create_descriptor engine ~worker_id =
  if worker_id < 0 || worker_id >= engine.Engine.max_workers then
    invalid_arg "Txn.create: worker_id out of range";
  {
    engine;
    id = Engine.next_descriptor_id engine;
    worker_id;
    rng = Rng.make (0x7C0FFEE + worker_id);
    rv = 0;
    active = false;
    attempt = 0;
    entries = Array.make 4 dummy_entry;
    entry_count = 0;
    txn_epoch = 1;  (* > 0 so a fresh entry's epoch 0 reads as inactive *)
    cur_region_id = -1;
    cur_stripe = dummy_stripe;
    first_region_id = -1;
    cur_epoch = 0;
    reads = 0;
    retry_hook = None;
    read_keys = Intvec.create ();
    read_observed = Intvec.create ();
    lock_keys = Intvec.create ();
    vis_keys = Intvec.create ();
    writes = Vec.create ~dummy:dummy_any ();
    undo = Vec.create ~dummy:dummy_logged ();
    last_serialization = 0;
    mv_stale = false;
    mv_inhibit = false;
    commit_wv = 0;
    ctl_checks = Vec.create ~dummy:dummy_logged ();
    read_bloom = 0;
    read_index = Intmap.create ();
    vis_index = Intmap.create ();
    own_bloom = 0;
    publish_phase = no_phase;
    rollback_phase = no_phase;
  }

let worker_id t = t.worker_id
let attempt t = t.attempt
let rng t = t.rng
let set_retry_hook t f = t.retry_hook <- Some f

let run_retry_hook t =
  match t.retry_hook with None -> () | Some f -> f ()

(* Serialization stamp of the descriptor's last committed transaction: the
   commit version [wv] for update transactions, the (possibly extended)
   read version [rv] for read-only ones.  Transactions are serializable in
   stamp order, with update transactions ordered before read-only
   transactions carrying the same stamp — the property the linearizability
   replay tests exploit. *)
let last_serialization t = t.last_serialization

let check_active t operation =
  if not t.active then invalid_arg (operation ^ ": no transaction is running")

let is_read_only t = Vec.is_empty t.writes && Vec.is_empty t.undo

(* -- Region tracking ----------------------------------------------------- *)

(* First touch of [region] in the current transaction: refresh the cached
   configuration (the tuner may have reconfigured between transactions —
   never during one, because we are registered in-flight with the engine) and
   mark the entry active.  Charged as per-partition bookkeeping, exactly
   once per region per transaction, as the historical allocating version
   was. *)
let activate t (e : region_entry) =
  Runtime_hook.charge (Runtime_hook.Step 2);
  let region = e.re_region in
  e.re_config <- region.Region.config;
  e.re_ctl_snap <- -1;
  e.re_ctl_held <- -1;
  e.re_writes <- 0;
  e.re_epoch <- t.txn_epoch;
  if t.cur_epoch <> t.txn_epoch then t.first_region_id <- region.Region.id;
  t.cur_region_id <- region.Region.id;
  t.cur_stripe <- e.re_stripe;
  t.cur_epoch <- t.txn_epoch

(* First-ever touch of [region] by this descriptor: make the pooled entry
   at the next index of [entries].  Steady state never reaches this. *)
let new_entry t region =
  let index = t.entry_count in
  if index = Array.length t.entries then begin
    let bigger = Array.make (2 * index) dummy_entry in
    Array.blit t.entries 0 bigger 0 index;
    t.entries <- bigger
  end;
  let e =
    {
      re_region = region;
      re_index = index;
      re_config = region.Region.config;
      re_ctl_snap = -1;
      re_ctl_held = -1;
      re_stripe = Region_stats.stripe region.Region.stats t.worker_id;
      re_writes = 0;
      re_epoch = 0;
    }
  in
  t.entries.(index) <- e;
  t.entry_count <- index + 1;
  activate t e;
  e

(* Every walk over the entries runs newest first: a commit takes its
   commit-time seqlocks in that order, and simulated schedules depend on
   it.  Top-level recursion: this runs once per read/write on the
   zero-allocation fast path; a local [let rec] capturing [t] and [region]
   would allocate its closure on every call. *)
let rec find_entry t region i =
  if i < 0 then new_entry t region
  else
    let e = t.entries.(i) in
    if e.re_region == region then begin
      if e.re_epoch <> t.txn_epoch then activate t e;
      e
    end
    else find_entry t region (i - 1)

let enter_region t region = find_entry t region (t.entry_count - 1)

(* Region id charged when a conflict has no attributable read site: the
   most recently activated region, mirroring the historical "head of the
   per-txn regions list". *)
let fallback_region_id t = if t.cur_epoch = t.txn_epoch then t.cur_region_id else -1

let first_region_id t = if t.cur_epoch = t.txn_epoch then t.first_region_id else -1

(* Top-level recursion, not a closure over [t]: this runs on every
   commit/abort of the zero-allocation fast path. *)
let rec iter_active_aux t f i =
  if i >= 0 then begin
    let e = t.entries.(i) in
    if e.re_epoch = t.txn_epoch then f e;
    iter_active_aux t f (i - 1)
  end

let iter_active_entries t f = iter_active_aux t f (t.entry_count - 1)

(* -- Orec keys ------------------------------------------------------------

   A logged orec is one int: the index of its region's pooled entry above
   [slot_bits], the lock-table slot below.  A slot index fits in
   [Mode.granularity_max + 1] bits, so the pair is injective.  A key is
   resolved through the entry's cached table, which is stable while the
   transaction runs (quiescence), so a key logged in this transaction
   always names the orec it was logged for. *)
let slot_bits = Mode.granularity_max + 1
let slot_mask = (1 lsl slot_bits) - 1
let key_of (e : region_entry) slot = (e.re_index lsl slot_bits) lor slot
let entry_of t key = t.entries.(key lsr slot_bits)
let key_slot key = key land slot_mask
let orec_word t key = Lock_table.word (entry_of t key).re_config.Region.table (key_slot key)

let reader_counter t key =
  Lock_table.reader_counter (entry_of t key).re_config.Region.table (key_slot key)

(* Two Bloom probes, one in bits 0-30 and one in bits 31-61, from a fold
   of the key.  As for [Intmap]'s home bucket, no avalanche hash is
   needed: the slot bits are already a hash of the tvar id, and the fold
   mixes in the entry index. *)
let bloom_bits key =
  let h = key lxor (key lsr slot_bits) in
  (1 lsl (h land 31)) lor (1 lsl (31 + ((h lsr 5) land 31)))

(* -- Validation and extension ------------------------------------------- *)

(* A read entry is valid iff its orec still carries the exact word observed
   at read time, or we have since write-locked it ourselves and the
   pre-lock word our lock carries matches.  Returns the index of the first
   invalid entry, or -1 when the whole read set is valid.  Top-level
   recursion: it runs on every validating commit. *)
let rec first_invalid_from t i =
  if i >= Intvec.length t.read_keys then -1
  else begin
    Runtime_hook.charge Runtime_hook.Validate_entry;
    let observed = Intvec.get t.read_observed i in
    let current = Atomic.get (orec_word t (Intvec.get t.read_keys i)) in
    if current = observed || (Orec.locked_by current ~owner:t.id && Orec.prev current = observed)
    then first_invalid_from t (i + 1)
    else i
  end

let first_invalid t = first_invalid_from t 0

let validate t = first_invalid t < 0

(* -- Conflict attribution --------------------------------------------------

   A validation failure names the orec of the first stale read entry,
   decoded from the read set itself: its key names the region's entry and
   the slot, so the descriptor keeps no second log. *)

let record_conflict t ~cause ~region ~slot =
  match t.engine.Engine.recorder with
  | None -> ()
  | Some r -> r.Engine.rec_conflict ~txn:t.id ~cause ~region ~slot

let record_validation_conflict t ~failed_index =
  match t.engine.Engine.recorder with
  | None -> ()
  | Some r ->
      let key = Intvec.get t.read_keys failed_index in
      r.Engine.rec_conflict ~txn:t.id ~cause:Engine.Validation
        ~region:(entry_of t key).re_region.Region.id ~slot:(key_slot key)

(* -- Commit-time-lock read-log validation ---------------------------------

   The value-revalidation log [ctl_checks] proves the commit-time-lock
   reads consistent *at the moment they all pass under stable sequence
   words* (NOrec's invariant).  Joint validation samples every active
   unheld commit-time-lock region's sequence word (even = no publish in
   flight), runs all checks, and confirms the words did not move — on
   success each entry's snapshot advances to the sampled value.  Entries
   whose seqlock this transaction holds at commit are stable by
   construction and skip the sampling. *)

let ctl_is_active t (e : region_entry) =
  e.re_epoch = t.txn_epoch
  && Protocol.is_commit_time_lock e.re_config.Region.mode.Mode.protocol
  && e.re_ctl_held < 0

let rec ctl_sample_phase t i =
  i < 0
  ||
  let e = t.entries.(i) in
  if ctl_is_active t e then
    match Seqlock.read_even e.re_region.Region.ctl_seq ~spin_limit:Engine.sample_retry_limit with
    | Some s ->
        e.re_ctl_snap <- s;
        ctl_sample_phase t (i - 1)
    | None -> false
  else ctl_sample_phase t (i - 1)

let rec ctl_confirm_phase t i =
  i < 0
  ||
  let e = t.entries.(i) in
  ((not (ctl_is_active t e)) || Seqlock.read e.re_region.Region.ctl_seq = e.re_ctl_snap)
  && ctl_confirm_phase t (i - 1)

(* Seeded bug: the value checks pass vacuously — everywhere revalidation
   runs (read mismatch, extension, commit).  Guarding only the commit-time
   call would make the mutant unobservable: the acquire-time and read-path
   extensions (which share this pass) close every window in which a torn
   snapshot could form, leaving the commit-only skip with stale-but-
   consistent snapshots that remain serializable. *)
let rec ctl_values_hold log i =
  i >= Vec.length log
  || (match Vec.get log i with Logged (tvar, value) -> Tvar.peek tvar == value)
     && ctl_values_hold log (i + 1)

let ctl_run_checks t = Bug.enabled Bug.Ctl_skip_validation || ctl_values_hold t.ctl_checks 0

let rec ctl_all_valid_aux t retries =
  if retries > Engine.sample_retry_limit then false
  else if not (ctl_sample_phase t (t.entry_count - 1)) then false
  else begin
    Runtime_hook.charge (Runtime_hook.Step (Vec.length t.ctl_checks));
    if not (ctl_run_checks t) then false
    else if ctl_confirm_phase t (t.entry_count - 1) then true
    else begin
      Runtime_hook.relax ();
      ctl_all_valid_aux t (retries + 1)
    end
  end

let ctl_all_valid t = Vec.is_empty t.ctl_checks || ctl_all_valid_aux t 0

(* Timestamp extension: move [rv] forward to the current clock if nothing we
   read has changed meanwhile.  Called when a read (or an acquired lock)
   exposes a version newer than [rv].  A transaction whose snapshot is
   frozen by a multi-version history read cannot extend (the history read
   is valid at [rv] only, and is not in the validatable read set), so it
   aborts — and inhibits history serving for the retry, which otherwise
   could freeze and abort again forever. *)
let extend t (entry : region_entry) =
  let now = Engine.now t.engine in
  if now = t.rv then
    (* Extension coalescing: the read set is already valid at [now] — [rv]
       is by construction the clock value of the last successful full
       validation (or of begin), so there is nothing new to validate
       against and the revalidation pass can be skipped outright.  (Note
       the asymmetric unsound sibling: revalidating only entries logged
       since the last extension is NOT safe, because an old entry can be
       overwritten with a version in (rv, now] — see DESIGN.md §3.)  From
       the single-version call sites this branch never fires — they all
       guard on [version > rv], and a committed version is <= the clock —
       but the commit-time-lock read path can reach it, and it keeps
       coalescing explicit and any future call site cheap. *)
    ()
  else if t.mv_stale then begin
    Region_stats.incr_validation_fails entry.re_stripe;
    record_conflict t ~cause:Engine.Validation ~region:entry.re_region.Region.id ~slot:(-1);
    raise Abort
  end
  else if Intvec.length t.read_keys = 0 && Vec.is_empty t.ctl_checks then
    (* Nothing read invisibly yet: the snapshot can move forward for free
       (visible reads are 2PL-protected and need no revalidation). *)
    t.rv <- now
  else if Bug.enabled Bug.Skip_extension_validation then
    (* Seeded bug: extend without revalidating — zombie snapshots. *)
    t.rv <- now
  else begin
    let failed = first_invalid t in
    if failed >= 0 then begin
      Region_stats.incr_validation_fails entry.re_stripe;
      record_validation_conflict t ~failed_index:failed;
      raise Abort
    end
    else if not (ctl_all_valid t) then begin
      (* Moving [rv] forward moves the whole-transaction snapshot point, so
         the value-logged commit-time-lock reads must also hold there. *)
      Region_stats.incr_validation_fails entry.re_stripe;
      record_conflict t ~cause:Engine.Validation ~region:entry.re_region.Region.id ~slot:(-1);
      raise Abort
    end
    else begin
      Region_stats.incr_extensions entry.re_stripe;
      t.rv <- now
    end
  end

let lock_conflict t (entry : region_entry) ~slot =
  Region_stats.incr_lock_conflicts entry.re_stripe;
  record_conflict t ~cause:Engine.Lock_busy ~region:entry.re_region.Region.id ~slot;
  raise Abort

(* -- Reads ---------------------------------------------------------------- *)

let record_read t (entry : region_entry) ~slot ~version =
  t.reads <- t.reads + 1;
  match t.engine.Engine.access with
  | None -> ()
  | Some r -> r.Engine.rec_read ~txn:t.id ~region:entry.re_region.Region.id ~slot ~version

(* Read sets of at most this many entries are deduplicated by a backward
   scan of [read_keys] behind the [read_bloom] test (a new orec usually
   misses the Bloom word and is logged with no scan); the [read_index]
   map is built once, when the set outgrows this size, and probed from
   then on, so a transaction that never outgrows it never touches the
   map.  A module constant, not a setting: R-P1 measures the per-access
   cost on both sides of the switch. *)
let dedup_scan_max = 32

(* Position of the latest read entry keyed [key] at or below [i], or -1. *)
let rec latest_read keys key i =
  if i < 0 || Intvec.get keys i = key then i else latest_read keys key (i - 1)

let rec index_reads t i n =
  if i < n then begin
    Intmap.set t.read_index (Intvec.get t.read_keys i) i;
    index_reads t (i + 1) n
  end

(* Log an invisible read whose orec word [w1] has been double-sample
   confirmed and whose validity at [rv] is established by the caller
   (version <= rv, or a multi-version publish claim).  A successful
   extension does NOT establish it — the extension validates only the
   already-logged set, so callers must re-sample after extending rather
   than log a pre-extension word.  Shared tail of the single-version and
   multi-version paths. *)
let log_invisible_read t (entry : region_entry) ~slot w1 =
  (* Reads covered by an already-logged orec need no new log entry —
     this is what makes coarse granularity cheap for scan-style
     transactions.  Duplicates are suppressed anywhere in the read set
     (alternating reads over two coarse orecs do not double the set per
     iteration); this is sound because at this point the word is known
     valid at [rv], and by clock monotonicity the logged observation of
     the same orec at [<= rv] must be the identical word — a later
     committed version would carry a tick past the validation that moved
     [rv].  The equality check against the orec's latest entry keeps the
     dedup conservative anyway (under seeded zombie bugs a mismatch
     appends, so validation still sees the stale entry and fails as it
     should). *)
  let key = key_of entry slot in
  let n = Intvec.length t.read_keys in
  if n > dedup_scan_max then begin
    (* One probe both finds a logged entry and claims the position of a
       new one. *)
    let i = Intmap.find_or_add t.read_index key n in
    if i < 0 || Intvec.get t.read_observed i <> w1 then begin
      if i >= 0 then Intmap.set t.read_index key n;
      Intvec.push t.read_keys key;
      Intvec.push t.read_observed w1
    end
  end
  else begin
    let bits = bloom_bits key in
    if
      t.read_bloom land bits <> bits
      ||
      let i = latest_read t.read_keys key (n - 1) in
      i < 0 || Intvec.get t.read_observed i <> w1
    then begin
      t.read_bloom <- t.read_bloom lor bits;
      Intvec.push t.read_keys key;
      Intvec.push t.read_observed w1;
      (* The entry that outgrows [dedup_scan_max] builds the index over
         the whole set. *)
      if n = dedup_scan_max then index_reads t 0 (n + 1)
    end
  end;
  record_read t entry ~slot ~version:(Orec.version w1)

(* Serve a read from the tvar's multi-version history: the newest committed
   value published at or before [rv] (DESIGN.md §10.1).  Only worthwhile
   when the caller saw an orec version beyond [rv] (otherwise the current
   value is the snapshot value).  The served value is NOT in the validatable
   read set, so taking this path freezes the snapshot ([mv_stale]): it is
   reserved for transactions that are read-only so far and stay so — writes
   and extension abort once stale.  The [Mv_skip_stale_check] seeded bug
   drops exactly that discipline.  [None] = fall back to extension. *)
let mv_history_read : type a. t -> region_entry -> a Mv_history.state -> a option =
 fun t entry st ->
  let buggy = Bug.enabled Bug.Mv_skip_stale_check in
  if t.mv_inhibit then None
  else if Mv_history.epoch st <> entry.re_config.Region.mv_epoch then
    (* History from a previous protocol phase: commits made while the
       region ran another protocol never reached it, so its entries'
       validity windows are broken — no claims until a writer rebuilds
       it under the current epoch. *)
    None
  else if (not buggy) && not (is_read_only t && Vec.is_empty t.ctl_checks) then None
  else begin
    (* The ring is scanned before the probe's charge, as it stood at the
       caller's double sample: under the simulator a later writer can
       retire into it during the charge's yield. *)
    let found = Mv_history.find st ~at:t.rv in
    Runtime_hook.charge (Runtime_hook.Step 1);
    match found with
    | None -> None
    | Some (version, value) ->
        if not buggy then t.mv_stale <- true;
        Region_stats.incr_mv_hist_reads entry.re_stripe;
        (* slot -1: not an orec-versioned observation — the opacity oracle
           skips it (its validity window is the history entry's, not the
           slot's; see DESIGN.md §10.4). *)
        record_read t entry ~slot:(-1) ~version;
        Some value
  end


(* Top-level recursion: one call per invisible read on the zero-allocation
   fast path; a local [let rec sample] closure over [t]/[entry]/[tvar]/
   [word] would allocate on every read. *)
let rec invisible_sample : type a.
    t -> region_entry -> a Tvar.t -> slot:int -> int Atomic.t -> int -> a =
 fun t entry tvar ~slot word retries ->
  if retries > Engine.sample_retry_limit then lock_conflict t entry ~slot;
  let w1 = Atomic.get word in
  if Orec.is_locked w1 then
    if Orec.owner w1 = t.id then
      (* We hold the write lock covering this tvar (a co-located write):
         the committed cell is stable under our lock; no logging needed. *)
      Tvar.peek tvar
    else if entry.re_config.Region.mv_depth > 0 then begin
      (* Multi-version region: wait out the in-flight writer instead of
         aborting.  Once the lock is released the slot either carries a
         version <= [rv] (read directly) or the writer has retired the
         rv-valid value into the history (served below).  Serving history
         *while* the lock is held would be unsound — the in-flight commit's
         wv may be <= our rv, making the retired entry's validity window
         already closed at [rv].  The wait shares the CAS-race retry
         budget, and writers never spin on locks, so no cycle can form;
         on budget exhaustion this degrades to the historical abort. *)
      Runtime_hook.relax ();
      invisible_sample t entry tvar ~slot word (retries + 1)
    end
    else lock_conflict t entry ~slot
  else begin
    let value = Tvar.peek tvar in
    let w2 = Atomic.get word in
    if w1 <> w2 then begin
      Runtime_hook.relax ();
      invisible_sample t entry tvar ~slot word (retries + 1)
    end
    else if Orec.version w1 <= t.rv then begin
      log_invisible_read t entry ~slot w1;
      value
    end
    else if entry.re_config.Region.mv_depth > 0 then begin
      (* Multi-version region and the orec has moved past our snapshot.
         Two rescues before falling back to extension:
         - The tvar's own publish version may still be <= [rv] (the orec is
           newer only through slot sharing): the current value IS the
           snapshot value, and is logged like a normal read — validation
           covers it, no freeze needed.
         - Otherwise the history may hold the value that was current at
           [rv] (read-only path; freezes the snapshot). *)
      let st = tvar.Tvar.mv in
      if Mv_history.epoch st = entry.re_config.Region.mv_epoch && Mv_history.version st <= t.rv
      then begin
        Region_stats.incr_mv_hist_reads entry.re_stripe;
        log_invisible_read t entry ~slot w1;
        value
      end
      else
        match mv_history_read t entry st with
        | Some served -> served
        | None ->
            (* Extension moves [rv] to "now", but [w1]/[value] predate it:
               anything that yielded since the double sample (the history
               probe charges a step) can hide a commit with wv <= now on
               this very slot, making the sample stale at the new [rv].
               Never log a pre-extension sample — extend, then redo the
               read under the advanced snapshot (TinySTM restarts the load
               after extension for the same reason). *)
            extend t entry;
            invisible_sample t entry tvar ~slot word (retries + 1)
    end
    else begin
      (* Same rule as the multi-version fallback above: extend first, then
         re-sample — the pre-extension sample may be stale at the new
         [rv].  (The single-version path has no yield between sample and
         extension under the simulator, but the domains backend has no
         such atomicity, so the re-sample is load-bearing there.) *)
      extend t entry;
      invisible_sample t entry tvar ~slot word (retries + 1)
    end
  end

let read_invisible t (entry : region_entry) tvar ~slot (word : int Atomic.t) =
  Runtime_hook.charge Runtime_hook.Read_invisible;
  invisible_sample t entry tvar ~slot word 0

(* Do we already hold a visible-reader count on the orec [key]?  Called
   once per visible read, so it must not scan the holds: a Bloom test (one
   [land]; exact "no" while nothing is held) is backed by the vis index. *)
let holds_visible t ~key =
  let bits = bloom_bits key in
  t.own_bloom land bits = bits && Intmap.find t.vis_index key >= 0

let read_visible (type a) t (entry : region_entry) (tvar : a Tvar.t) ~(table : Lock_table.t)
    ~slot (word : int Atomic.t) : a =
  let counter = Lock_table.reader_counter table slot in
  let key = key_of entry slot in
  let w0 = Atomic.get word in
  if Orec.locked_by w0 ~owner:t.id then Tvar.peek tvar
  else if holds_visible t ~key then
    (* Shared hold since an earlier read (strict 2PL): no writer can have
       committed to this slot meanwhile. *)
    Tvar.peek tvar
  else begin
    Runtime_hook.charge Runtime_hook.Read_visible;
    ignore (Atomic.fetch_and_add counter 1);
    Intmap.set t.vis_index key (Intvec.length t.vis_keys);
    Intvec.push t.vis_keys key;
    t.own_bloom <- t.own_bloom lor bloom_bits key;
    let w = Atomic.get word in
    if Orec.is_locked w then
      if Orec.owner w = t.id then Tvar.peek tvar else lock_conflict t entry ~slot
    else begin
      (* Keep the whole-transaction snapshot consistent: a version beyond
         [rv] means someone committed since we started; the extension
         revalidates the invisible part of the read set. *)
      if Orec.version w > t.rv then extend t entry;
      record_read t entry ~slot ~version:(Orec.version w);
      Tvar.peek tvar
    end
  end

(* Commit-time-lock read (DESIGN.md §10.2): no orec sampling, no read-set
   entry — the value is read under a stable (even, unchanged) region
   sequence word and logged with its tvar for value revalidation.  All reads
   under one snapshot value of the sequence word are mutually consistent
   (no commit published between them); when the word has moved since this
   transaction's snapshot, a joint revalidation (orec read set via
   extension + value checks) re-anchors the snapshot before the read is
   retried.  Top-level recursion, like [invisible_sample]. *)
let rec ctl_sample : type a. t -> region_entry -> a Tvar.t -> slot:int -> int -> a =
 fun t entry tvar ~slot retries ->
  if retries > Engine.sample_retry_limit then lock_conflict t entry ~slot;
  let seq = entry.re_region.Region.ctl_seq in
  let s1 = Seqlock.read seq in
  if Seqlock.is_locked s1 then begin
    Runtime_hook.relax ();
    ctl_sample t entry tvar ~slot (retries + 1)
  end
  else begin
    let value = Tvar.peek tvar in
    let s2 = Seqlock.read seq in
    if s2 <> s1 then begin
      Runtime_hook.relax ();
      ctl_sample t entry tvar ~slot (retries + 1)
    end
    else if entry.re_ctl_snap >= 0 && entry.re_ctl_snap <> s1 then begin
      (* The region committed past our snapshot: move the whole-transaction
         snapshot point forward (validating every read, both logs), then
         re-sample. *)
      let now = Engine.now t.engine in
      if now > t.rv then extend t entry
      else if not (ctl_all_valid t) then begin
        Region_stats.incr_validation_fails entry.re_stripe;
        record_conflict t ~cause:Engine.Validation ~region:entry.re_region.Region.id
          ~slot:(-1);
        raise Abort
      end;
      ctl_sample t entry tvar ~slot (retries + 1)
    end
    else begin
      if entry.re_ctl_snap < 0 then begin
        entry.re_ctl_snap <- s1;
        (* Couple the fresh region snapshot to the orec snapshot: the orec
           read set must be valid at (or after) the moment the sequence
           word was sampled, otherwise a commit between [rv] and now could
           be half-visible (in this value, not in earlier reads). *)
        if Engine.now t.engine > t.rv then extend t entry
      end;
      Vec.push t.ctl_checks (Logged (tvar, value));
      (* slot -1: value-validated, not orec-versioned — the opacity oracle
         skips it (ABA makes value validation and version claims
         incomparable; see DESIGN.md §10.4). *)
      record_read t entry ~slot:(-1) ~version:s1;
      value
    end
  end

let read_ctl t (entry : region_entry) tvar ~slot =
  Runtime_hook.charge Runtime_hook.Read_invisible;
  if t.mv_stale then begin
    (* A frozen multi-version snapshot cannot absorb value-validated reads
       (they are only provably valid "now", not at [rv]).  Abort and
       inhibit history serving so the retry takes the orec path. *)
    t.mv_inhibit <- true;
    Region_stats.incr_validation_fails entry.re_stripe;
    record_conflict t ~cause:Engine.Validation ~region:entry.re_region.Region.id ~slot:(-1);
    raise Abort
  end;
  ctl_sample t entry tvar ~slot 0

let read t (tvar : 'a Tvar.t) : 'a =
  check_active t "Txn.read";
  let entry = enter_region t tvar.Tvar.region in
  Region_stats.incr_reads entry.re_stripe;
  if tvar.Tvar.pending_owner = t.id then tvar.Tvar.pending
  else begin
    let config = entry.re_config in
    let table = config.Region.table in
    let slot = Lock_table.slot_of_id table tvar.Tvar.id in
    let word = Lock_table.word table slot in
    if Protocol.is_commit_time_lock config.Region.mode.Mode.protocol then begin
      ignore word;
      read_ctl t entry tvar ~slot
    end
    else
      match config.Region.mode.Mode.visibility with
      | Mode.Invisible -> read_invisible t entry tvar ~slot word
      | Mode.Visible -> read_visible t entry tvar ~table ~slot word
  end

(* -- Writes --------------------------------------------------------------- *)

(* Bounded wait for visible readers other than ourselves ([my_holds] is
   our own share of [counter]) to drain; returns the spins taken.  An
   expired wait is a reader conflict and we abort ourselves, which releases
   the lock via rollback.  Top-level recursion, like [invisible_sample]:
   it runs once per write on the zero-allocation path. *)
let rec drain_readers t (entry : region_entry) ~slot (counter : int Atomic.t) ~my_holds spins =
  if Atomic.get counter > my_holds then
    if spins >= Engine.writer_wait_limit then begin
      Region_stats.incr_reader_conflicts entry.re_stripe;
      record_conflict t ~cause:Engine.Reader_wait ~region:entry.re_region.Region.id ~slot;
      raise Abort
    end
    else begin
      Runtime_hook.relax ();
      drain_readers t entry ~slot counter ~my_holds (spins + 1)
    end
  else spins

(* Acquire the write lock on [word] (orec [key]): the locked word carries
   the replaced word's version for validation and rollback.  On success
   the lock is recorded for release, then visible readers are drained. *)
let rec acquire_attempt t (entry : region_entry) ~slot ~key (word : int Atomic.t)
    (counter : int Atomic.t) retries =
  if retries > Engine.sample_retry_limit then lock_conflict t entry ~slot;
  let w = Atomic.get word in
  if Orec.locked_by w ~owner:t.id then ()
  else if Orec.is_locked w then lock_conflict t entry ~slot
  else begin
    Runtime_hook.charge Runtime_hook.Lock_acquire;
    if not (Atomic.compare_and_set word w (Orec.make_locked ~owner:t.id ~prev:w)) then begin
      Runtime_hook.relax ();
      acquire_attempt t entry ~slot ~key word counter (retries + 1)
    end
    else begin
      Intvec.push t.lock_keys key;
      (* Visible holds are unique per counter (read_visible guards on
         [holds_visible]), so our share of the counter is a membership
         test: 1 if we hold this slot's counter, else 0. *)
      let my_holds = if holds_visible t ~key then 1 else 0 in
      (* Seeded bug: ignoring the reader counters breaks the 2PL shared
         hold that lets visible readers skip commit-time validation. *)
      let drain_spins =
        if Bug.enabled Bug.Skip_reader_drain then 0
        else drain_readers t entry ~slot counter ~my_holds 0
      in
      (match t.engine.Engine.recorder with
      | None -> ()
      | Some r ->
          r.Engine.rec_lock_wait ~txn:t.id ~region:entry.re_region.Region.id ~slot
            ~spins:(retries + drain_spins));
      if Orec.version w > t.rv then extend t entry
    end
  end

let acquire_slot t (entry : region_entry) ~slot word counter =
  acquire_attempt t entry ~slot ~key:(key_of entry slot) word counter 0

let record_write t (entry : region_entry) ~slot =
  match t.engine.Engine.access with
  | None -> ()
  | Some r -> r.Engine.rec_write ~txn:t.id ~region:entry.re_region.Region.id ~slot

(* First write to a multi-version tvar: build a ring when the tvar has
   none of the current configuration period, so that commit or rollback
   retires the committed value into it.  Runs under the orec write lock,
   so the ring store races with no one. *)
let mv_prepare (type a) t (entry : region_entry) (tvar : a Tvar.t) =
  Runtime_hook.charge (Runtime_hook.Step 1);
  let config = entry.re_config in
  if Mv_history.epoch tvar.Tvar.mv <> config.Region.mv_epoch then
    (* Stale period: the history was not maintained, so the publish
       version of the current value is unknown.  Claim "now" — an
       overstatement that only ever sends readers to the fallback path,
       never to a wrong value. *)
    tvar.Tvar.mv <-
      Mv_history.rebuild ~epoch:config.Region.mv_epoch ~depth:config.Region.mv_depth
        ~version:(Engine.now t.engine) ~current:(Tvar.peek tvar)

(* Locked write outside multi-version: a ring left by an earlier
   multi-version period is dead weight (no reader of this period consults
   it, and the next period rebuilds on its stale epoch), so drop it.
   Charged nothing; runs under the orec write lock like [mv_prepare]. *)
let drop_ring (type a) (tvar : a Tvar.t) =
  if tvar.Tvar.mv != Mv_history.initial then tvar.Tvar.mv <- Mv_history.initial

let write (type a) t (tvar : a Tvar.t) (value : a) =
  check_active t "Txn.write";
  if t.mv_stale then begin
    (* The snapshot is frozen by a history read and a commit could not
       validate it: abort now, and inhibit history serving for the retry. *)
    t.mv_inhibit <- true;
    if t.cur_epoch = t.txn_epoch then Region_stats.incr_validation_fails t.cur_stripe;
    record_conflict t ~cause:Engine.Validation ~region:(fallback_region_id t) ~slot:(-1);
    raise Abort
  end;
  let entry = enter_region t tvar.Tvar.region in
  Region_stats.incr_writes entry.re_stripe;
  entry.re_writes <- entry.re_writes + 1;
  let config = entry.re_config in
  match config.Region.mode.Mode.update with
  | Mode.Write_back ->
      if tvar.Tvar.pending_owner = t.id then tvar.Tvar.pending <- value
      else begin
        let table = config.Region.table in
        let slot = Lock_table.slot_of_id table tvar.Tvar.id in
        let word = Lock_table.word table slot in
        let counter = Lock_table.reader_counter table slot in
        acquire_slot t entry ~slot word counter;
        record_write t entry ~slot;
        tvar.Tvar.pending <- value;
        tvar.Tvar.pending_owner <- t.id;
        if config.Region.mv_depth > 0 then mv_prepare t entry tvar else drop_ring tvar;
        Vec.push t.writes (Tvar.Any tvar)
      end
  | Mode.Write_through ->
      (* Write in place under the lock; log the previous value for undo.
         Every write appends an undo entry (no dedup needed); rollback
         replays them in reverse, so multiple writes to one tvar restore
         the original value. *)
      let table = config.Region.table in
      let slot = Lock_table.slot_of_id table tvar.Tvar.id in
      let word = Lock_table.word table slot in
      let counter = Lock_table.reader_counter table slot in
      acquire_slot t entry ~slot word counter;
      record_write t entry ~slot;
      drop_ring tvar;
      let previous = Tvar.peek tvar in
      Runtime_hook.charge Runtime_hook.Write_entry;
      Tvar.poke tvar value;
      Vec.push t.undo (Logged (tvar, previous))

(* Convenience: transactional read-modify-write. *)
let modify t tvar f = write t tvar (f (read t tvar))

(* Blocking retry (the Haskell-STM combinator): abort and re-run once some
   location this transaction read has changed.  Watches the invisible read
   set, so it requires at least one invisible read before the call. *)
let retry t =
  check_active t "Txn.retry";
  if Intvec.length t.read_keys = 0 then
    invalid_arg "Txn.retry: nothing read invisibly (the wait set would be empty)";
  record_conflict t ~cause:Engine.Explicit_retry ~region:(fallback_region_id t) ~slot:(-1);
  raise Retry

(* -- Lifecycle ------------------------------------------------------------ *)

let begin_txn t =
  Engine.enter t.engine ~worker:t.worker_id;
  Intvec.clear t.read_keys;
  Intvec.clear t.read_observed;
  Intvec.clear t.lock_keys;
  Intvec.clear t.vis_keys;
  Vec.clear t.writes;
  Vec.clear t.undo;
  Vec.clear t.ctl_checks;
  t.read_bloom <- 0;
  Intmap.clear t.read_index;
  Intmap.clear t.vis_index;
  t.own_bloom <- 0;
  t.mv_stale <- false;
  t.commit_wv <- 0;
  t.reads <- 0;
  t.rv <- Engine.now t.engine;
  t.active <- true;
  match t.engine.Engine.recorder with
  | None -> ()
  | Some r -> r.Engine.rec_begin ~txn:t.id ~worker:t.worker_id ~rv:t.rv

let release_visible_holds t =
  for i = 0 to Intvec.length t.vis_keys - 1 do
    ignore (Atomic.fetch_and_add (reader_counter t (Intvec.get t.vis_keys i)) (-1))
  done

(* Descriptor reuse must not leak: [Vec.clear] only resets the length, so a
   completed transaction would keep pinning its logged tvars (and through
   their values, whole tvar graphs) until the worker's next transaction
   happened to overwrite the same slots.  Wipe the used prefix of every
   pointer-holding vec at transaction end (O(entries used), not
   O(capacity)); the int-keyed logs hold no references and reset lazily
   at [begin_txn]. *)
let release_references t =
  Vec.wipe t.writes;
  Vec.wipe t.undo;
  Vec.wipe t.ctl_checks;
  (* Deactivate every pooled region entry in O(1): stale epochs read as
     inactive.  The entries themselves stay — that is the pool. *)
  t.txn_epoch <- t.txn_epoch + 1

(* White-box leak probe: heap references a quiescent descriptor still pins
   (backing-array slots not reset to the dummy, plus active region
   entries).  0 after a completed transaction; pooled-but-inactive region
   entries are deliberate retention and not counted. *)
let debug_resident t =
  let active = ref 0 in
  iter_active_entries t (fun _ -> incr active);
  Vec.resident t.writes + Vec.resident t.undo + Vec.resident t.ctl_checks + !active

(* White-box view of the invisible read set, in log order: each entry's
   region id, lock-table slot and observed orec word. *)
let debug_read_log t =
  List.init (Intvec.length t.read_keys) (fun i ->
      let key = Intvec.get t.read_keys i in
      ((entry_of t key).re_region.Region.id, key_slot key, Intvec.get t.read_observed i))

let finalize_success t =
  t.mv_inhibit <- false;
  release_visible_holds t;
  iter_active_entries t (fun e ->
      Region_stats.incr_commits e.re_stripe;
      if e.re_writes = 0 then Region_stats.incr_ro_commits e.re_stripe);
  release_references t;
  Engine.leave t.engine ~worker:t.worker_id;
  t.active <- false

(* The attempt's write total: one log entry per [record_write] call. *)
let writes_logged t = Vec.length t.writes + Vec.length t.undo

let record_commit t ~stamp =
  match t.engine.Engine.recorder with
  | None -> ()
  | Some r ->
      r.Engine.rec_commit ~txn:t.id ~stamp ~reads:t.reads ~writes:(writes_logged t)
        ~region:(first_region_id t)

(* Commit-time seqlock acquisition for every commit-time-lock region this
   transaction wrote.  On failure the abort path abandons whatever was
   already captured.  Quiescence guarantees the tuner never reconfigures
   while a holder is in flight, so a held word cannot outlive its region's
   commit-time-lock period. *)
let rec ctl_acquire_writes t i =
  if i >= 0 then begin
    let e = t.entries.(i) in
    if
      e.re_epoch = t.txn_epoch
      && Protocol.is_commit_time_lock e.re_config.Region.mode.Mode.protocol
      && e.re_writes > 0
    then begin
      match Seqlock.acquire e.re_region.Region.ctl_seq ~spin_limit:Engine.sample_retry_limit with
      | Some captured -> e.re_ctl_held <- captured
      | None -> lock_conflict t e ~slot:(-1)
    end;
    ctl_acquire_writes t (i - 1)
  end

let rec ctl_release_held t i =
  if i >= 0 then begin
    let e = t.entries.(i) in
    if e.re_epoch = t.txn_epoch && e.re_ctl_held >= 0 then begin
      Seqlock.release e.re_region.Region.ctl_seq ~captured:e.re_ctl_held;
      e.re_ctl_held <- -1;
      Region_stats.incr_ctl_commits e.re_stripe
    end;
    ctl_release_held t (i - 1)
  end

let rec ctl_abandon_held t i =
  if i >= 0 then begin
    let e = t.entries.(i) in
    if e.re_epoch = t.txn_epoch && e.re_ctl_held >= 0 then begin
      Seqlock.abandon e.re_region.Region.ctl_seq ~captured:e.re_ctl_held;
      e.re_ctl_held <- -1
    end;
    ctl_abandon_held t (i - 1)
  end

(* Write-back publish of one logged tvar: its buffered value becomes the
   committed one.  Whether it also retires the old value into the tvar's
   ring is the region's current depth, which quiescence keeps fixed for
   the whole transaction (the same value the write cached at activation). *)
let publish (type a) t (tvar : a Tvar.t) =
  Runtime_hook.charge Runtime_hook.Write_entry;
  let current = Tvar.peek tvar in
  Tvar.poke tvar tvar.Tvar.pending;
  (* Publish order matters for the snapshot rule: the new cell value must
     not be observable with the old publish version past the orec release.
     Both stores happen under the still-held orec lock, so readers whose
     double sample brackets them retry; the ring's stores precede the
     releasing [Atomic.set], so a reader that samples the slot unlocked
     sees them (Tvar's header). *)
  if tvar.Tvar.region.Region.config.Region.mv_depth > 0 then
    Mv_history.retire tvar.Tvar.mv ~current ~version:t.commit_wv;
  tvar.Tvar.pending_owner <- Tvar.no_owner

let rec publish_writes t i =
  if i < Vec.length t.writes then begin
    (match Vec.get t.writes i with Tvar.Any tvar -> publish t tvar);
    publish_writes t (i + 1)
  end

(* Held sequence locks are released last: their release is what tells
   value-validating readers that the region's cells are stable again. *)
let publish_and_release t () =
  publish_writes t 0;
  let released = Orec.make_version t.commit_wv in
  for i = 0 to Intvec.length t.lock_keys - 1 do
    Atomic.set (orec_word t (Intvec.get t.lock_keys i)) released
  done;
  ctl_release_held t (t.entry_count - 1)

(* An aborted multi-version write retires the still-current value with
   its version unchanged (see [Mv_history.retire]). *)
let retire_unpublished (type a) (tvar : a Tvar.t) =
  if tvar.Tvar.region.Region.config.Region.mv_depth > 0 then begin
    let st = tvar.Tvar.mv in
    Mv_history.retire st ~current:(Tvar.peek tvar) ~version:(Mv_history.version st)
  end

(* Undo entries replay in reverse write order, so multiple writes to one
   tvar restore the oldest value last; write-back entries drop their owner
   tag (charged nothing).  Both strictly before lock release: a later lock
   owner must never observe our stale owner tag or our uncommitted
   in-place values. *)
let undo_and_release t () =
  if not (Bug.enabled Bug.Skip_undo_log) then
    for i = Vec.length t.undo - 1 downto 0 do
      match Vec.get t.undo i with
      | Logged (tvar, previous) ->
          Runtime_hook.charge Runtime_hook.Write_entry;
          Tvar.poke tvar previous
    done;
  for i = 0 to Vec.length t.writes - 1 do
    match Vec.get t.writes i with
    | Tvar.Any tvar ->
        retire_unpublished tvar;
        if not (Bug.enabled Bug.Skip_undo_log) then tvar.Tvar.pending_owner <- Tvar.no_owner
  done;
  for i = 0 to Intvec.length t.lock_keys - 1 do
    let word = orec_word t (Intvec.get t.lock_keys i) in
    Atomic.set word (Orec.prev (Atomic.get word))
  done;
  (* Sequence locks captured by an aborted commit: nothing was published,
     so restoring the captured even value keeps every reader snapshot
     taken under it valid. *)
  ctl_abandon_held t (t.entry_count - 1);
  release_visible_holds t

let commit t =
  if is_read_only t then begin
    t.last_serialization <- t.rv;
    record_commit t ~stamp:t.rv;
    finalize_success t
  end
  else begin
    Runtime_hook.charge Runtime_hook.Commit_fixed;
    (match t.engine.Engine.recorder with
    | None -> ()
    | Some r -> r.Engine.rec_commit_begin ~txn:t.id);
    (* Written commit-time-lock regions: take the sequence lock before the
       clock tick, so a reader that observes the released (even) word also
       observes a clock past [wv] — seeing the word move implies the
       commit is complete. *)
    ctl_acquire_writes t (t.entry_count - 1);
    let wv = Engine.tick t.engine in
    let skip_validation =
      (* [wv = rv + 1]: no one committed since our snapshot — in any
         region, so the value-logged commit-time-lock reads are also still
         current — and there is nothing to validate.  The seeded bug skips
         the check unconditionally. *)
      wv = t.rv + 1 || Bug.enabled Bug.Skip_commit_validation
    in
    (if not skip_validation then begin
       let failed = first_invalid t in
       if failed >= 0 then begin
         if t.cur_epoch = t.txn_epoch then Region_stats.incr_validation_fails t.cur_stripe;
         record_validation_conflict t ~failed_index:failed;
         raise Abort
       end;
       (* Value-revalidate the commit-time-lock read log (entries whose
          seqlock we hold are stable without sampling).  The
          [Ctl_skip_validation] seeded bug blanks the shared check pass
          inside [ctl_run_checks]. *)
       if not (ctl_all_valid t) then begin
         if t.cur_epoch = t.txn_epoch then Region_stats.incr_validation_fails t.cur_stripe;
         record_conflict t ~cause:Engine.Validation ~region:(fallback_region_id t) ~slot:(-1);
         raise Abort
       end
     end);
    (* Publish + release are not abortable: once the first buffered value
       lands, the only way forward is completion, so the phase is masked
       against fault injection. *)
    t.commit_wv <- wv;
    Runtime_hook.critical t.publish_phase;
    t.last_serialization <- wv;
    record_commit t ~stamp:wv;
    finalize_success t
  end

let rollback t =
  (* The whole undo sequence is masked: a fault-injection kill here would
     leave locks orphaned forever. *)
  Runtime_hook.critical t.rollback_phase;
  (match t.engine.Engine.recorder with
  | None -> ()
  | Some r ->
      r.Engine.rec_abort ~txn:t.id ~reads:t.reads ~writes:(writes_logged t)
        ~region:(first_region_id t));
  (* One-attempt inhibit: an abort while the snapshot was frozen disables
     history serving for the retry (freezing at the same read and aborting
     again is the one deterministic loop the single-version path cannot
     have).  An abort of an attempt that was *not* frozen — including an
     already-inhibited attempt failing ordinary validation — clears the
     inhibit: that failure is plain single-version contention, and the next
     attempt deserves the history path again.  Without the reset, one cold
     freeze-miss at startup would condemn a reader to single-version
     behaviour until its first successful commit. *)
  t.mv_inhibit <- t.mv_stale;
  iter_active_entries t (fun e ->
      Region_stats.incr_aborts e.re_stripe;
      if e.re_writes = 0 then Region_stats.incr_ro_aborts e.re_stripe);
  release_references t;
  Engine.leave t.engine ~worker:t.worker_id;
  t.active <- false;
  Runtime_hook.charge Runtime_hook.Abort_restart

(* Park until any watched orec changes from its observed word.  Runs with
   no transaction in flight (locks released, engine deregistered), so it
   cannot block a quiesce or hold anything another transaction needs. *)
let wait_for_read_set_change watched_words observed_words =
  let n = Array.length watched_words in
  let changed () =
    let rec scan i = i < n && (Atomic.get watched_words.(i) <> observed_words.(i) || scan (i + 1)) in
    scan 0
  in
  while not (changed ()) do
    Runtime_hook.relax ()
  done

(* The retry loop is written with [match ... with exception] rather than a
   [try]/outcome variant: the success path returns the body's value with no
   [ref]/[option] boxing, so a committed transaction allocates nothing here
   (exception branches are tail positions, so retries also run in constant
   stack). *)
(* Top-level recursion (not a local [let rec loop] closing over [t]/[f],
   which would allocate its closure per transaction). *)
let rec atomically_loop : type a. t -> (t -> a) -> a =
 fun t f ->
  t.attempt <- t.attempt + 1;
  if t.attempt > t.engine.Engine.max_attempts then raise (Too_many_attempts t.attempt);
  begin_txn t;
  match
    let value = f t in
    commit t;
    value
  with
  | value -> value
  | exception Abort ->
      rollback t;
      run_retry_hook t;
      Cm.delay t.engine.Engine.contention_manager t.rng ~attempt:t.attempt;
      atomically_loop t f
  | exception Retry ->
      (* Snapshot the wait set before rollback clears it. *)
      let n = Intvec.length t.read_keys in
      let watched = Array.init n (fun i -> orec_word t (Intvec.get t.read_keys i)) in
      let observed = Array.init n (Intvec.get t.read_observed) in
      rollback t;
      run_retry_hook t;
      wait_for_read_set_change watched observed;
      t.attempt <- 0;
      atomically_loop t f
  | exception exn ->
      record_conflict t ~cause:Engine.Exception_unwind ~region:(fallback_region_id t) ~slot:(-1);
      rollback t;
      raise exn

let atomically t f =
  if t.active then invalid_arg "Txn.atomically: transactions do not nest";
  t.attempt <- 0;
  t.mv_inhibit <- false;
  atomically_loop t f

(* The phase thunks close over the descriptor itself: built once here, so
   no commit or rollback allocates one. *)
let create engine ~worker_id =
  let t = create_descriptor engine ~worker_id in
  t.publish_phase <- publish_and_release t;
  t.rollback_phase <- undo_and_release t;
  t
