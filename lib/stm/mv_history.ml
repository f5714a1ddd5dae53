(* Per-tvar multi-version history: the storage half of the Multi_version
   protocol (DESIGN.md §10.1).

   A tvar's [mv] field is [Initial] until its first multi-version write,
   then a ring of [depth - 1] (version, value) slots built by [rebuild] and
   kept for the whole configuration period, and [Initial] again from its
   first locked write after the region leaves multi-version.  Every later commit or abort
   updates the ring in place, so the publish path allocates nothing.  Only
   the orec write-lock holder mutates a ring or stores a new one, before
   the store that releases the orec, so writers never race each other, and
   a reader that sampled the orec unlocked sees the ring as that release
   left it or newer (Tvar's header gives the ordering argument).

   A racing reader may meet a ring that a later writer is mutating.  The
   ring's sequence word is odd for the length of that mutation: [retire]
   bumps it before touching a slot and again after the last store, both
   atomically.  [find] reads it before and after its scan and serves
   nothing when it was odd or moved.  OCaml 5's memory model keeps plain
   accesses in program order around atomic ones: if the scan read any
   store of the mutation, the atomic bump that preceded that store is
   visible to the scan's second read of the word.  A whole ring that is newer
   than the reader's sample is fine: its entries past the sample carry
   versions above the reader's snapshot and are skipped.

   Meaning of the fields:

   - [epoch] ties the ring to one multi-version configuration period of
     the region ({!Region}'s [mv_epoch] is bumped by every protocol change).
     While a region is *not* running Multi_version its writers do not
     maintain histories, so a ring from an earlier period may understate
     [version]; a reader that trusted it could serve a value that was
     since overwritten.  A stale epoch therefore means "no multi-version
     information", and the first multi-version write of the new period
     rebuilds the ring from the clock (conservatively *overstating* the
     publish version: readers with older snapshots fall back to the
     single-version path instead of being lied to).

   - [version] is the global-clock version at which the tvar's *current*
     committed cell value was published (or conservatively later, after an
     epoch rebuild).  It answers "is the current value already valid at my
     snapshot?" without consulting the orec, whose version is per-slot and
     can exceed the tvar's own last write under orec sharing.  One word,
     read without the sequence word: a racing reader gets the released
     version or a newer one, either of which it handles.

   - [versions]/[values] hold superseded (publish-version, value) pairs;
     [head] is the newest slot and [length] the slots in use, newest
     first going backwards round the ring.  The ring holds the region's
     whole served window, so the served values are exactly those of a
     history truncated to [depth - 1] on every push. *)

type 'a state =
  | Initial
  | Ring of {
      epoch : int;
      seq : int Atomic.t;  (* odd while the lock holder mutates the slots *)
      mutable version : int;  (* publish version of the current committed value *)
      mutable head : int;  (* newest slot *)
      mutable length : int;  (* slots in use, <= Array.length versions *)
      versions : int array;
      values : 'a array;
    }

(* Epoch -1 never matches a region epoch (regions count up from 0), so a
   fresh tvar carries no multi-version claims until its first MV write. *)
let initial = Initial

(* Rebuild after an epoch change: the history is unmaintained, so start an
   empty ring and claim the current value published at [version] (the
   clock's current version — an overstatement that only ever sends readers
   to the single-version fallback, never to a wrong value). *)
let rebuild ~epoch ~depth ~version ~current =
  let window = depth - 1 in
  Ring
    {
      epoch;
      seq = Atomic.make 0;
      version;
      head = 0;
      length = 0;
      versions = Array.make window 0;
      values = Array.make window current;
    }

(* The committed value [current] (published at [version st]) leaves the
   cell: retire it into the ring and record the cell's value as published
   at [version].  The lock holder calls this before releasing the orec: at
   commit with the commit version, and at abort with [version st] — then
   the value stays current and the head slot duplicates it.  Such a
   duplicate is never served (a reader needs [version > at], and it
   carries [version]) but occupies one slot of the window until the next
   retire replaces it rather than stacking, so which versions are served
   depends on the abort history exactly as it does when every writer
   retires at first write.  A region of depth 1 has no slots and serves
   nothing; only its version moves. *)
let retire st ~current ~version =
  match st with
  | Initial -> ()
  | Ring r ->
      let window = Array.length r.versions in
      if window > 0 then begin
        let seq = Atomic.get r.seq in
        Atomic.set r.seq (seq + 1);
        if r.length > 0 && r.versions.(r.head) = r.version then r.values.(r.head) <- current
        else begin
          let head = if r.head + 1 = window then 0 else r.head + 1 in
          r.versions.(head) <- r.version;
          r.values.(head) <- current;
          r.head <- head;
          if r.length < window then r.length <- r.length + 1
        end;
        Atomic.set r.seq (seq + 2)
      end;
      r.version <- version

let epoch = function Initial -> -1 | Ring r -> r.epoch
let version = function Initial -> 0 | Ring r -> r.version
let length = function Initial -> 0 | Ring r -> r.length

(* Newest slot with version <= [at] among the [n] slots from [slot]
   backwards: [slot] or -1.  A racing writer can leave [head]/[length]
   mutually stale, never out of range, so every index stays in bounds. *)
let rec newest_le versions ~at slot n =
  if n = 0 then -1
  else if versions.(slot) <= at then slot
  else
    let prev = if slot = 0 then Array.length versions - 1 else slot - 1 in
    newest_le versions ~at prev (n - 1)

(* Newest historical version <= [at], for a reader whose snapshot the
   current value post-dates.  The ring never holds the current value
   (except as an abort duplicate carrying [version], which such a reader
   cannot want: it requires [version > at]). *)
let find st ~at =
  match st with
  | Initial -> None
  | Ring r ->
      let seq = Atomic.get r.seq in
      if seq land 1 = 1 then None
      else
        let slot = newest_le r.versions ~at r.head r.length in
        if slot < 0 then None
        else
          let found = (r.versions.(slot), r.values.(slot)) in
          if Atomic.get r.seq <> seq then None else Some found
