(* A region's lock table: one orec word plus one visible-reader counter per
   slot.  Tables are immutable once published (only [restamp] touches a
   table before then); online granularity changes swap in a whole new table
   under the region quiesce protocol. *)

open Partstm_util

type t = {
  words : int Atomic.t array;
  readers : int Atomic.t array;
  granularity_log2 : int;
  padded : bool;
}

(* Padding budget: a padded slot costs 2 × 128 B (orec word + reader
   counter), so cap padding at 4096 slots (1 MiB per table).  Beyond that
   (granularities 13 to [Mode.granularity_max] = 16) fall back to packed
   [Atomic.make] boxes: with thousands of slots, accesses are spread thin
   enough that density beats false-sharing avoidance. *)
let padded_slots_max = 4096

let create ~padded ~clock_now ~granularity_log2 =
  if granularity_log2 < Mode.granularity_min || granularity_log2 > Mode.granularity_max then
    invalid_arg "Lock_table.create: granularity out of range";
  let slots = 1 lsl granularity_log2 in
  let padded = padded && slots <= padded_slots_max in
  (* Fresh orecs start at the current clock: any transaction with an older
     read version conservatively re-validates (or extends) on first contact,
     so swapping tables can never hide a concurrent update. *)
  let initial = Orec.make_version clock_now in
  let make_array init =
    if padded then Padding.atomic_array ~len:slots init
    else Array.init slots (fun _ -> Atomic.make init)
  in
  {
    words = make_array initial;
    readers = make_array 0;
    granularity_log2;
    padded;
  }

(* Raise every orec of a table not yet published to [clock_now]: a table
   built before a quiesce is stamped at the quiesce's clock, exactly as if
   it had been created there.  Only valid before any transaction can see
   the table (no orec is locked, no reader registered). *)
let restamp t ~clock_now =
  let version = Orec.make_version clock_now in
  Array.iter (fun w -> Atomic.set w version) t.words

let is_padded t = t.padded

let slots t = Array.length t.words

let slot_of_id t tvar_id =
  if t.granularity_log2 = 0 then 0 else Bits.hash_to_slot ~slots:(Array.length t.words) tvar_id

let word t slot = t.words.(slot)
let reader_counter t slot = t.readers.(slot)

let locked_slots t =
  let n = ref 0 in
  Array.iter (fun w -> if Orec.is_locked (Atomic.get w) then incr n) t.words;
  !n

let readers_total t = Array.fold_left (fun acc r -> acc + Atomic.get r) 0 t.readers
