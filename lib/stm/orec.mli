(** Ownership-record word encoding: bit 0 = write-locked. Unlocked, the
    remaining bits hold the commit version; locked, bits 1-20 hold the
    owner descriptor id and bits 21-61 the version of the word the lock
    replaced. *)

val max_owner : int
(** Largest encodable descriptor id (2^20 - 1). *)

val max_version : int
(** Largest encodable commit version (2^41 - 1). *)

val is_locked : int -> bool
val owner : int -> int
(** Meaningful only when {!is_locked}. *)

val version : int -> int
(** Meaningful only when not {!is_locked}. *)

val prev : int -> int
(** The unlocked word a locked word replaced. Meaningful only when
    {!is_locked}. *)

val make_locked : owner:int -> prev:int -> int
(** The word that locks [prev] (an unlocked word) for [owner]
    ([<= max_owner]; [version prev <= max_version]). *)

val make_version : int -> int
val locked_by : int -> owner:int -> bool
