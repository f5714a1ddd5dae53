(** Growable array with O(1) amortised push and O(1) clear; reusable across
    transaction attempts.  Not thread-safe (one owner). *)

type 'a t

val create : ?capacity:int -> dummy:'a -> unit -> 'a t
val length : 'a t -> int
val is_empty : 'a t -> bool
val push : 'a t -> 'a -> unit
val get : 'a t -> int -> 'a

val clear : 'a t -> unit
(** Resets the length; does not drop element references (see
    {!wipe}). *)

val wipe : 'a t -> unit
(** Resets the length and overwrites the used prefix [0, length) with the
    dummy, releasing every element reference in O(length): [push] never
    skips a slot, so nothing past the used prefix can be pinned. *)

val resident : 'a t -> int
(** Number of slots in the whole backing array (not just [0, length))
    holding something other (physically) than the dummy — i.e. element
    references the vec still pins. Diagnostic for leak tests. *)

val iter : ('a -> unit) -> 'a t -> unit
