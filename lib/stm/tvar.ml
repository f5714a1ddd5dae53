(* Transactional variable: one heap block of six fields (DESIGN.md §3).

   [cell] holds the committed value.  It is field 0 of the record and is
   read and written only through an ['a Atomic.t] view of the record
   itself ([atomic]): an [Atomic.t] is a single-field block, and
   [%atomic_load], [caml_atomic_exchange] and [caml_atomic_cas] address
   field 0 and never read the block size, so a longer block behaves
   identically (the trick [Padding.atomic_int] relies on).  The field is
   immutable in the type, so no other module can assign it, and no code
   projects it: every access is an atomic load or exchange, which the
   compiler neither caches nor reorders.  ['a cell] is abstract in the
   interface, so other modules cannot read it either.

   [pending]/[pending_owner] implement write buffering: a transaction that
   holds the write lock covering this tvar's orec stores its tentative
   value in [pending] and tags it with its descriptor id, which gives O(1)
   read-own-write without unsafe casts.  Only the lock holder touches
   [pending], so the fields need no atomicity; [pending_owner] is cleared
   (under the same lock) at commit/abort.

   [mv] is the multi-version state, a plain mutable field:
   [Mv_history.initial] or the tvar's version ring of the current
   multi-version period.  Only the holder of the orec write lock covering
   this tvar stores a new ring or mutates the ring in place, always before
   the [Atomic.set] that releases the orec.  A snapshot reader reads it only after an atomic
   load of the orec word that saw the slot unlocked.  That load acquires
   the release store that unlocked the slot, so every store made before
   the release happens-before the read: the reader sees the ring as that
   release left it or newer, never older.  A newer ring (a writer locked
   the slot again after the sample) is a race.  OCaml 5 bounds it for the
   field itself (the read returns one of the stored rings, fully
   initialised), and the ring's sequence word bounds it for the slots
   ([Mv_history.find] serves nothing from a scan that overlapped a
   mutation).  The read path tolerates a newer ring: a committed writer
   records a publish version past the reader's snapshot, which sends the
   reader to the history or to extension, and an aborted writer leaves
   the current value's version unchanged. *)

type 'a cell = 'a

type 'a t = {
  cell : 'a cell;
  id : int;
  region : Region.t;
  mutable pending : 'a;
  mutable pending_owner : int;
  mutable mv : 'a Mv_history.state;
}

(* A tvar with its value type forgotten, for the descriptor's write-back
   log: [@@unboxed] makes [Any tv] the tvar pointer itself, so logging a
   write allocates nothing. *)
type any = Any : 'a t -> any [@@unboxed]

let no_owner = -1

let make region initial =
  ignore (Atomic.fetch_and_add region.Region.tvars 1);
  {
    cell = initial;
    id = Engine.next_tvar_id region.Region.engine;
    region;
    pending = initial;
    pending_owner = no_owner;
    mv = Mv_history.initial;
  }

let id t = t.id
let region t = t.region

(* The record viewed as the atomic whose single field is [cell]. *)
let atomic (t : 'a t) : 'a Atomic.t = Obj.magic t

let peek t = Atomic.get (atomic t)

let poke t value = Atomic.set (atomic t) value
