(** Transactional variable, bound to a region (partition) at creation.

    One heap block: the committed value is field 0 of the record, read and
    written atomically through {!peek} and {!poke} only. *)

type 'a cell
(** The committed value.  Abstract: only {!peek} and {!poke} read or
    write it. *)

type 'a t = {
  cell : 'a cell;  (** committed value; field 0 *)
  id : int;
  region : Region.t;
  mutable pending : 'a;  (** tentative value; owned by the lock holder *)
  mutable pending_owner : int;  (** descriptor id of the buffering writer *)
  mutable mv : 'a Mv_history.state;
      (** multi-version state: {!Mv_history.initial}, or a version ring
          allocated at the first write of a multi-version period and
          dropped at the first write outside multi-version.  Stored
          and mutated only by the orec lock holder, before the release;
          read only after an orec sample that saw the slot unlocked *)
}

type any = Any : 'a t -> any [@@unboxed]
(** A tvar with its value type forgotten.  Unboxed, so [Any tv] is [tv]
    itself: the transaction descriptor logs its write-back set as plain
    data (no record, no closure per write). *)

val no_owner : int

val make : Region.t -> 'a -> 'a t
(** Allocates exactly one block. *)

val id : 'a t -> int
val region : 'a t -> Region.t

val peek : 'a t -> 'a
(** Atomic read of the committed value.  The engine's reads go through it
    under the orec protocol; outside a transaction it is a
    non-transactional read (initialisation, post-run verification). *)

val poke : 'a t -> 'a -> unit
(** Atomic write of the committed value.  The engine writes through it
    under the orec write lock; outside a transaction it is only safe when
    no transaction can access the tvar (setup/teardown). *)
