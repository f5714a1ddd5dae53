(** Transactional variable, bound to a region (partition) at creation. *)

type 'a t = {
  id : int;
  region : Region.t;
  cell : 'a Atomic.t;  (** committed value *)
  mutable pending : 'a;  (** tentative value; owned by the lock holder *)
  mutable pending_owner : int;  (** descriptor id of the buffering writer *)
  mv : 'a Mv_history.state Atomic.t;
      (** multi-version history (swapped only by the orec lock holder) *)
}

type any = Any : 'a t -> any [@@unboxed]
(** A tvar with its value type forgotten.  Unboxed, so [Any tv] is [tv]
    itself: the transaction descriptor logs its write-back set as plain
    data (no record, no closure per write). *)

val no_owner : int

val make : Region.t -> 'a -> 'a t

val id : 'a t -> int
val region : 'a t -> Region.t

val peek : 'a t -> 'a
(** Non-transactional read of the committed value (initialisation,
    post-run verification). *)

val poke : 'a t -> 'a -> unit
(** Non-transactional write. Only safe when no transaction can access the
    tvar (setup/teardown). *)
