(* Transactional variable.

   [cell] holds the committed value (atomic: committed writes must be visible
   across domains).  [pending]/[pending_owner] implement write buffering: a
   transaction that holds the write lock covering this tvar's orec stores its
   tentative value in [pending] and tags it with its descriptor id, which
   gives O(1) read-own-write without unsafe casts.  Only the lock holder
   touches [pending], so the fields need no atomicity; [pending_owner] is
   cleared (under the same lock) at commit/abort. *)

type 'a t = {
  id : int;
  region : Region.t;
  cell : 'a Atomic.t;
  mutable pending : 'a;
  mutable pending_owner : int;
  mv : 'a Mv_history.state Atomic.t;
      (* multi-version history; swapped only by the orec lock holder, read
         race-free by snapshot readers (one Atomic.get yields a consistent
         state) *)
}

(* A tvar with its value type forgotten, for the descriptor's write-back
   log: [@@unboxed] makes [Any tv] the tvar pointer itself, so logging a
   write allocates nothing. *)
type any = Any : 'a t -> any [@@unboxed]

let no_owner = -1

let make region initial =
  ignore (Atomic.fetch_and_add region.Region.tvars 1);
  {
    id = Engine.next_tvar_id region.Region.engine;
    region;
    cell = Atomic.make initial;
    pending = initial;
    pending_owner = no_owner;
    mv = Atomic.make Mv_history.initial;
  }

let id t = t.id
let region t = t.region

let peek t = Atomic.get t.cell

let poke t value = Atomic.set t.cell value
