(** A region's lock table: orec words plus visible-reader counters.
    Immutable once published; granularity changes swap in a new table under
    the region quiesce protocol. *)

type t = {
  words : int Atomic.t array;
  readers : int Atomic.t array;
  granularity_log2 : int;
  uid : int;  (** process-wide unique table id (keys descriptor indexes) *)
  padded : bool;  (** orecs/counters are cache-line-padded blocks *)
}

val create : padded:bool -> clock_now:int -> granularity_log2:int -> t
(** Fresh orecs start at version [clock_now] (conservative, safe across
    table swaps). [padded] allocates each orec word and reader counter on
    its own cache line ({!Partstm_util.Padding}) so concurrent CASes on
    adjacent slots do not false-share; it is capped internally for very
    large tables and can be disabled for A/B comparison (bench/exp_d1). *)

val restamp : t -> clock_now:int -> unit
(** Set every orec to version [clock_now]. Only for a table no transaction
    can reach yet: {!Region.reconfigure} builds the replacement table before
    the quiesce and restamps it inside if the clock moved meanwhile. *)

val is_padded : t -> bool

val slots : t -> int
val slot_of_id : t -> int -> int
val word : t -> int -> int Atomic.t

val slot_key : t -> int -> int
(** [slot_key t slot] is a non-negative int identifying (table, slot)
    process-wide — injective because slots fit in 17 bits
    ([Mode.granularity_max] = 16).  Used to key the transaction
    descriptor's {!Partstm_util.Intmap} indexes. *)

val key_uid : int -> int
val key_slot : int -> int
(** Decode a {!slot_key}: [key_uid (slot_key t s) = t.uid] and
    [key_slot (slot_key t s) = s]. Conflict attribution names the failing
    read entry's orec from its key. *)

val reader_counter : t -> int -> int Atomic.t

val locked_slots : t -> int
(** Diagnostic: number of currently write-locked slots. *)

val readers_total : t -> int
(** Diagnostic: sum of visible-reader counters. *)
