(** Bounded log: keeps the newest [capacity] entries and counts the ones it
    evicts. Pushing is O(1) (amortised while the log grows towards its
    cap). Not thread-safe (one owner). *)

type 'a t

val create : capacity:int -> 'a t
(** Raises [Invalid_argument] when [capacity < 1]. *)

val push : 'a t -> 'a -> unit
(** Append; once [capacity] entries are held, the oldest is evicted. *)

val length : 'a t -> int
(** Entries held, at most [capacity]. *)

val dropped : 'a t -> int
(** Entries evicted so far. *)

val to_list : 'a t -> 'a list
(** Held entries, oldest first. *)
