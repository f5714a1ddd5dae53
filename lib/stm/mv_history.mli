(** Per-tvar multi-version history: a ring of [depth - 1] (version, value)
    slots, allocated once per tvar per multi-version period and updated in
    place by the orec lock holder before it releases the orec; read by
    snapshot readers after an orec sample that saw the slot unlocked
    (DESIGN.md §3, §10.1).

    A region of depth [K] serves the newest [K - 1] superseded versions:
    exactly the slots of a ring of [K - 1].  Each ring carries a sequence
    word, odd while the lock holder mutates it; {!find} serves nothing
    when the word changed across its scan, so a racing reader never
    serves a torn entry. *)

type 'a state
(** [Initial] (no multi-version claims; allocates nothing) or a ring of
    one multi-version period. *)

val initial : 'a state
(** Epoch -1: matches no region period. *)

val rebuild : epoch:int -> depth:int -> version:int -> current:'a -> 'a state
(** Fresh ring after an epoch change: [depth - 1] empty slots, current
    value claimed published at [version] (conservative overstatement).
    [current] only fills the unused slots.  The only allocation. *)

val retire : 'a state -> current:'a -> version:int -> unit
(** [retire st ~current ~version]: the committed value [current]
    (published at [version st]) enters the ring and the cell's value is
    recorded as published at [version] — the commit version, or
    [version st] for an aborted writer, whose head entry then duplicates
    the current value until the next retire replaces it.  Overwrites the
    oldest slot once the ring is full; allocates nothing.  Lock holder
    only, before the orec is released.  A no-op on {!initial}. *)

val epoch : 'a state -> int
(** Region multi-version period the ring was built in; -1 for {!initial}. *)

val version : 'a state -> int
(** Global-clock version at which the current committed cell value was
    published (or conservatively later, after a rebuild). *)

val length : 'a state -> int
(** Entries held: at most [depth - 1]. *)

val find : 'a state -> at:int -> (int * 'a) option
(** Newest historical (version, value) with version <= [at]; [None] also
    when a writer mutated the ring during the scan. *)
