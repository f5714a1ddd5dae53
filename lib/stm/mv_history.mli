(** Per-tvar multi-version history: immutable states stored into the
    tvar's [mv] field by the orec lock holder before it releases the orec,
    read by snapshot readers after an orec sample that saw the slot
    unlocked (DESIGN.md §3, §10.1).

    A region of depth [K] serves the newest [K - 1] superseded versions.
    Writers truncate lazily: a history retains at most [2 (K - 1)] entries,
    and the ones past the newest [K - 1] are unreachable to {!find}. *)

type 'a hist =
  | Nil
  | Cons of { v : int; value : 'a; rest : 'a hist }
      (** superseded value published at version [v]; newest first *)

type 'a state = {
  mv_epoch : int;
      (** region multi-version period this state was maintained under; a
          mismatch means the state carries no usable claims *)
  mv_version : int;
      (** global-clock version at which the current committed cell value
          was published (or conservatively later, after a rebuild) *)
  mv_hist : 'a hist;  (** superseded versions, newest first *)
  mv_length : int;  (** cells in [mv_hist]; at most [2 (depth - 1)] *)
}

val initial : 'a state
(** Epoch -1: matches no region period. *)

val retire : 'a state -> depth:int -> current:'a -> version:int -> 'a state
(** [retire st ~depth ~current ~version]: the committed value [current]
    (published at [st.mv_version]) enters the history and the cell's value
    is recorded as published at [version] — the commit version, or
    [st.mv_version] for an aborted writer, whose head entry then
    duplicates the current value until the next retire replaces it.
    Conses one cell; truncates to [depth - 1] entries only when the
    history would exceed [2 (depth - 1)].  Lock holder only, before the
    orec is released. *)

val rebuild : epoch:int -> version:int -> 'a state
(** Fresh state after an epoch change: empty history, current value claimed
    published at [version] (conservative overstatement). *)

val find : 'a state -> at:int -> depth:int -> (int * 'a) option
(** Newest historical (version, value) with version <= [at] among the
    newest [depth - 1] entries — the window a region of depth [depth]
    serves; [depth] must be the region's depth in the state's epoch. *)
