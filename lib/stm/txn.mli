(** Transaction engine: TinySTM/LSA-style word-based STM with per-region
    concurrency control (see the implementation header for the algorithm).

    Descriptors are explicit and single-owner: allocate one per worker with
    {!create} and reuse it for every transaction that worker runs. *)

open Partstm_util

exception Too_many_attempts of int
(** Raised by {!atomically} when the engine's retry budget is exhausted. *)

type t
(** A transaction descriptor (one per worker, reused across transactions). *)

val create : Engine.t -> worker_id:int -> t
(** [worker_id] selects the statistics stripe; must be unique per concurrent
    worker and [< engine.max_workers]. *)

val set_retry_hook : t -> (unit -> unit) -> unit
(** Install a callback invoked after every rollback inside {!atomically}'s
    internal retry loop (conflict aborts and blocking retries).  Harnesses
    use it to keep observing a measurement deadline even when a worker
    livelocks inside one [atomically] call.  The hook runs with no
    transaction in flight; it must not start one. *)

val worker_id : t -> int

val attempt : t -> int
(** Attempt number of the currently running transaction (1 = first try). *)

val last_serialization : t -> int
(** Serialization stamp of this descriptor's last committed transaction
    (commit version for updates, snapshot version for read-only
    transactions). Committed transactions are serializable in stamp order,
    updates before read-only transactions at equal stamps. *)

val atomically : t -> (t -> 'a) -> 'a
(** Run a transaction to successful commit, retrying on conflicts with the
    engine's contention manager. The body may run several times and must not
    perform irrevocable side effects. Exceptions raised by the body abort
    the transaction and propagate. Transactions do not nest. *)

val read : t -> 'a Tvar.t -> 'a
(** Transactional read; must be called inside {!atomically}. *)

val write : t -> 'a Tvar.t -> 'a -> unit
(** Transactional write; must be called inside {!atomically}. *)

val modify : t -> 'a Tvar.t -> ('a -> 'a) -> unit
(** [modify t v f] is [write t v (f (read t v))]. *)

val retry : t -> 'a
(** Blocking retry (the Haskell-STM combinator): abort the transaction and
    re-run it once some location it read has changed. Watches the invisible
    read set; raises [Invalid_argument] if nothing was read invisibly. The
    wait holds no locks and does not count as in-flight. *)

(**/**)

(* Exposed for white-box tests; not part of the public API. *)

exception Abort

val dedup_scan_max : int
(* Read sets of at most this many entries are deduplicated by a scan; a
   larger one builds and probes an index.  R-P1 measures both sides. *)

val rng : t -> Rng.t
val validate : t -> bool
val begin_txn : t -> unit
val commit : t -> unit
val rollback : t -> unit

val debug_resident : t -> int
(* Heap references a quiescent descriptor still pins (backing-array slots
   not reset to the dummy, plus region entries active in the current
   transaction); 0 after a completed transaction. Pooled-but-inactive
   region entries are deliberate retention and not counted.
   Leak-regression probe. *)

val debug_read_log : t -> (int * int * int) list
(* The invisible read set in log order: each entry's region id, lock-table
   slot and observed orec word. *)
