(** An STM engine instance: global version clock, id generators, and
    engine-wide configuration. *)

type abort_cause =
  | Lock_busy  (** orec write-locked by another transaction *)
  | Reader_wait  (** visible-reader drain timed out *)
  | Validation  (** read-set validation failed (extension or commit) *)
  | Explicit_retry  (** user called [Txn.retry] *)
  | Exception_unwind  (** a user exception rolled the transaction back *)
      (** Why a conflict aborted an attempt; carried by [rec_conflict]. *)

val cause_to_string : abort_cause -> string

type recorder = {
  rec_begin : txn:int -> worker:int -> rv:int -> unit;
  rec_read : txn:int -> region:int -> slot:int -> version:int -> unit;
  rec_write : txn:int -> region:int -> slot:int -> unit;
  rec_commit : txn:int -> stamp:int -> reads:int -> writes:int -> region:int -> unit;
  rec_abort : txn:int -> reads:int -> writes:int -> region:int -> unit;
      (** [rec_commit] and [rec_abort] carry the attempt's totals, taken
          from the descriptor: [reads] counts the attempt's [rec_read]
          sites and [writes] its [rec_write] sites, whether or not a tap
          watches them, and [region] is the first region the attempt
          activated (-1 when none). *)
  rec_generation : region:int -> version:int -> unit;
  rec_conflict : txn:int -> cause:abort_cause -> region:int -> slot:int -> unit;
      (** fired at the failure point, before the abort unwinds; exactly once
          per [Region_stats] conflict-counter increment. [slot] is -1 when
          the failure names no single orec. A validation failure is
          attributed from the read set: [region]/[slot] name the first
          stale read entry's orec. *)
  rec_lock_wait : txn:int -> region:int -> slot:int -> spins:int -> unit;
      (** write lock acquired after [spins] CAS retries + reader-drain
          spins (0 = uncontended) *)
  rec_commit_begin : txn:int -> unit;
      (** an update transaction entered its commit sequence *)
}
(** Per-transaction event tap used by the checker ([lib/check]) and the
    tracing/profiling layer ([lib/obs]): the engine reports begins,
    orec-level reads (with the version observed), writes, commit stamps,
    aborts with the attempt's totals, lock-table (re)creations, conflict
    causes with the failing slot, lock-wait spin counts, and
    commit-sequence entry. All identifiers are plain ints ([txn] =
    descriptor id).

    [rec_read] and [rec_write] are the {e access hooks}: they fire per
    read or write, and the engine calls them only on taps that override at
    least one of them (a field physically different from
    {!null_recorder}'s) — the opacity checker's history. While no such tap
    is attached the access hook sites cost one load and one branch,
    whatever other taps are attached. Every other hook fires on every
    tap. *)

val null_recorder : recorder
(** Every field ignores its arguments; build taps with
    [{ null_recorder with rec_... }] so new hook sites do not break
    existing sinks. *)

type t = {
  clock : int Atomic.t;
  tvar_counter : int Atomic.t;
  descriptor_counter : int Atomic.t;
  region_counter : int Atomic.t;
  state : int Atomic.t;  (** 1 while a reconfiguration is quiescing, else 0 *)
  inflight_slots : int Atomic.t array;
      (** one in-flight counter per worker id, each on its own cache line
          when [padded] *)
  max_workers : int;  (** size of per-region stats shard arrays *)
  contention_manager : Cm.t;
  max_attempts : int;  (** per-transaction retry budget before giving up *)
  padded : bool;
      (** hot shared words (clock, freeze word, in-flight slots, orecs,
          reader counters) are cache-line-padded; [false] is the packed
          baseline (A/B, bench/exp_d1) *)
  mutable recorder : recorder option;
      (** the composed fan-out over all attached taps, read by the attempt
          hook sites. [None] (the default) costs one branch per hook site *)
  mutable access : recorder option;
      (** the fan-out over just the taps that override an access hook, read
          by the read and write hook sites; [None] while no attached tap
          watches accesses *)
  mutable taps : (int * recorder) list;
  mutable tap_counter : int;
}

val create :
  ?max_workers:int ->
  ?contention_manager:Cm.t ->
  ?max_attempts:int ->
  ?padded:bool ->
  unit ->
  t
(** [padded] (default [true]) places the hot shared words (global clock,
    freeze word, each worker's in-flight slot, and — via {!Region} — every
    lock table's orec words and reader counters) on their own cache lines;
    [false] is the packed baseline kept for A/B comparison
    (bench/exp_d1). *)

val writer_wait_limit : int
(** Spins a writer waits for visible readers to drain before it aborts
    (512). *)

val sample_retry_limit : int
(** Retries of a read's double-sampling loop, a lock acquisition's CAS
    race or a seqlock sample before the attempt aborts (64). *)

val add_tap : t -> recorder -> int
(** Attach an event sink; several taps can observe one engine (checker
    history and tracer coexist). Returns a handle for {!remove_tap}. Only
    while no transaction is in flight. *)

val remove_tap : t -> int -> unit
(** Detach a tap by handle (unknown handles are ignored). Only while no
    transaction is in flight. *)

val taps : t -> int list
(** Handles of the currently attached taps, in attach order. *)

val now : t -> int
(** Current global clock value. *)

val tick : t -> int
(** Advance the clock; returns the new unique commit version. Raises
    [Failure] past {!Orec.max_version}. *)

val next_tvar_id : t -> int

val next_descriptor_id : t -> int
(** Raises [Failure] past {!Orec.max_owner}: an orec word holds 20 bits of
    owner id. *)

val next_region_id : t -> int

val inflight : t -> int
(** Transactions in flight: the sum of every worker's slot. *)

val is_frozen : t -> bool

val enter : t -> worker:int -> unit
(** Register an in-flight transaction on [worker]'s slot (one uncontended
    atomic increment); while a reconfiguration is quiescing it backs out
    and spins. Called once per transaction attempt; [worker] must be below
    [max_workers]. *)

val leave : t -> worker:int -> unit
(** Deregister from [worker]'s slot; must pair with {!enter} on the same
    worker. *)

val quiesce : t -> (unit -> 'a) -> 'a
(** Run with no transaction in flight (freeze, wait until every slot reads
    0, run, unfreeze). At most one quiesce at a time; the caller must not
    be in a transaction. *)
