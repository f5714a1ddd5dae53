(* Per-tvar multi-version history: the storage half of the Multi_version
   protocol (DESIGN.md §10.1).

   A state is an immutable record stored whole into the tvar's mutable
   [mv] field, so concurrent readers always observe an internally
   consistent (epoch, current-version, history) triple with a single load
   — there is no torn pair to reason about.  Only the orec write-lock
   holder builds and stores new states, before the store that releases
   the orec, so stores never race each other, and a reader that sampled
   the orec unlocked sees the latest released state or a newer one
   (Tvar's header gives the ordering argument).

   Meaning of the fields:

   - [mv_epoch] ties the state to one multi-version configuration period of
     the region ({!Region}'s [mv_epoch] is bumped by every reconfiguration).
     While a region is *not* running Multi_version its writers do not
     maintain histories, so any state from an earlier period may understate
     [mv_version]; a reader that trusted it could serve a value that was
     since overwritten.  A stale epoch therefore means "no multi-version
     information", and the first multi-version write of the new period
     rebuilds the state from the orec version (conservatively *overstating*
     the publish version: readers with older snapshots fall back to the
     single-version path instead of being lied to).

   - [mv_version] is the global-clock version at which the tvar's *current*
     committed cell value was published (or conservatively later, after an
     epoch rebuild).  It answers "is the current value already valid at my
     snapshot?" without consulting the orec, whose version is per-slot and
     can exceed the tvar's own last write under orec sharing.

   - [mv_hist] holds superseded (publish-version, value) pairs, newest
     first, in inline-record cells ([Cons] is one 4-word block, no tuple).
     Readers see only the newest [depth - 1] of them, the region's
     configured window.  Writers cons on every retire and truncate to
     [depth - 1] only once the history holds more than [2 (depth - 1)]
     entries, so truncation copies [depth - 1] cells once per [depth - 1]
     pushes instead of on every push: at most [2 (depth - 1)] entries are
     retained, and the entries past the window are dead weight that no
     reader can reach.  The served values are therefore exactly those of
     a history truncated to [depth - 1] on every push. *)

type 'a hist = Nil | Cons of { v : int; value : 'a; rest : 'a hist }

type 'a state = {
  mv_epoch : int;
  mv_version : int;  (* publish version of the current committed value *)
  mv_hist : 'a hist;  (* superseded versions, newest first *)
  mv_length : int;  (* cells in [mv_hist] *)
}

(* Epoch -1 never matches a region epoch (regions count up from 0), so a
   fresh tvar carries no multi-version claims until its first MV write. *)
let initial = { mv_epoch = -1; mv_version = 0; mv_hist = Nil; mv_length = 0 }

(* Copy of the newest [n] cells.  Not tail-recursive; [n] is below the
   protocol's depth bound (64). *)
let rec take n = function
  | Cons { v; value; rest } when n > 0 -> Cons { v; value; rest = take (n - 1) rest }
  | Nil | Cons _ -> Nil

(* The committed value [current] (published at [st.mv_version]) leaves
   the cell: retire it into the history and record the cell's value as
   published at [version].  The lock holder calls this before releasing
   the orec: at commit with the commit version, and at abort with
   [st.mv_version] — then the value stays current and the history's head
   duplicates it.  Such a duplicate is never served (a reader needs
   [mv_version > at], and it carries [mv_version]) but occupies one slot of
   the window until the next retire replaces it rather than stacking, so
   which versions are served depends on the abort history exactly as it
   does when every writer retires at first write.  Conses one cell,
   truncating to the [depth - 1] window only once the history would
   exceed twice that. *)
let retire st ~depth ~current ~version =
  match st.mv_hist with
  | Cons { v; rest; _ } when v = st.mv_version ->
      { st with mv_version = version; mv_hist = Cons { v; value = current; rest } }
  | hist ->
      let window = depth - 1 in
      let hist = Cons { v = st.mv_version; value = current; rest = hist } in
      let length = st.mv_length + 1 in
      if length > 2 * window then
        { st with mv_version = version; mv_hist = take window hist; mv_length = window }
      else { st with mv_version = version; mv_hist = hist; mv_length = length }

(* Rebuild after an epoch change: the history is unmaintained, so drop it
   and claim the current value published at [version] (the orec's current
   version — an overstatement that only ever sends readers to the
   single-version fallback, never to a wrong value). *)
let rebuild ~epoch ~version =
  { mv_epoch = epoch; mv_version = version; mv_hist = Nil; mv_length = 0 }

(* Newest historical version <= [at] among the newest [n] cells, for a
   reader whose snapshot the current value post-dates.  The history never
   contains the current value (except as an abort duplicate carrying
   [mv_version], which such a reader cannot want: it requires
   [mv_version > at]). *)
let rec find_le hist ~at n =
  match hist with
  | Cons { v; value; rest } when n > 0 ->
      if v <= at then Some (v, value) else find_le rest ~at (n - 1)
  | Nil | Cons _ -> None

let find st ~at ~depth = find_le st.mv_hist ~at (depth - 1)
