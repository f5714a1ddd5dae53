(** Open-addressing map from non-negative int keys to int values with O(1)
    amortised insert/lookup and O(1) [clear] (epoch stamping — no
    per-clear allocation or array fill). Built for the transaction
    descriptor's read-set dedup and lock-set/visible-hold indexes; not
    thread-safe (single owner). Raises [Invalid_argument] on negative keys.

    The home bucket is a cheap fold of the key, not an avalanche hash:
    keys should carry well-spread low bits, as [Lock_table.slot_key] does
    (its low bits are a hashed slot). Other keys stay correct, only
    probe chains may grow. *)

type t

val create : ?capacity:int -> unit -> t
(** [capacity] is rounded up to a power of two, minimum 8. *)

val find : t -> int -> int
(** The value bound to the key, or [-1] when absent (values are expected
    to be non-negative indexes; no option allocation on the hot path). *)

val mem : t -> int -> bool

val set : t -> int -> int -> unit
(** Insert or overwrite. Grows (and re-hashes) at load factor 1/2. *)

val find_or_add : t -> int -> int -> int
(** [find_or_add t key value] is [find t key] when the key is bound;
    otherwise it binds the key to [value] and returns [-1]. One probe
    sequence instead of a [find] followed by a [set]. *)

val clear : t -> unit
(** Drop every binding in O(1). Capacity is retained. *)

val length : t -> int
(** Number of live bindings. *)

val capacity : t -> int
(** Current slot count (diagnostic / tests). *)

val iter : (int -> int -> unit) -> t -> unit
(** [iter f t] applies [f key value] to each live binding, in slot order. *)
