(** Growable int array with O(1) amortised push and O(1) clear; reusable
    across transaction attempts. Like {!Vec}, but monomorphic: stores need
    no write barrier. Not thread-safe (one owner). *)

type t

val create : ?capacity:int -> unit -> t
val length : t -> int
val push : t -> int -> unit

val get : t -> int -> int
(** Raises [Invalid_argument] outside [0, length). *)

val clear : t -> unit
