(* Open-addressing hash map from non-negative int keys to int values,
   built for the STM descriptor fast paths (Txn's read-set dedup and its
   lock-set / visible-hold indexes):

   - one int array of 3-word buckets [stamp; key; value], so a probe reads
     one cache line and every store is a plain int store (no write
     barrier);
   - power-of-two bucket count, linear probing from a cheap fold of the
     key, [key lxor (key lsr 17)]: the descriptor's keys
     ([Lock_table.slot_key]) carry the lock-table slot in their low 17
     bits, and the slot is already a [Bits.mix_int] of the tvar id, so a
     second avalanche hash would only cost time;
   - O(1) amortised insert and lookup, no boxing, no option allocation on
     the hot path ([find] returns -1 for absence);
   - O(1) [clear] by epoch stamping: each bucket carries the epoch in which
     it was written and is live only while the stamp matches the map's
     current epoch, so resetting the map between transaction attempts is
     one integer increment — no per-attempt allocation or array fill.

   Not thread-safe (one owner, like the descriptor that embeds it). *)

type t = {
  mutable buckets : int array;  (* [stamp; key; value] per bucket *)
  mutable mask : int;  (* bucket count - 1; the count is a power of two *)
  mutable epoch : int;  (* bucket live iff its stamp = [epoch] *)
  mutable live : int;  (* live entries at the current epoch *)
}

let stride = 3
let absent = -1

let create ?(capacity = 16) () =
  let capacity = Bits.ceil_power_of_two (max 8 capacity) in
  { buckets = Array.make (capacity * stride) 0; mask = capacity - 1; epoch = 1; live = 0 }

let length t = t.live
let capacity t = t.mask + 1

let clear t =
  (* Epoch wrap is unreachable in practice (2^62 clears); the guard keeps
     the stamp trick sound anyway. *)
  if t.epoch = max_int then begin
    Array.fill t.buckets 0 (Array.length t.buckets) 0;
    t.epoch <- 1
  end
  else t.epoch <- t.epoch + 1;
  t.live <- 0

(* Probing returns the offset of [key]'s bucket: the live bucket holding
   it, or the free bucket that ends its chain.  Offsets are [i * stride]
   with [i <= mask], so the unchecked loads stay in bounds by
   construction.  The chain walk is a top-level recursive function (a
   local [let rec] capturing [t] and [key] would allocate per call); the
   first probe is an inlined wrapper, so a hit in the home bucket costs
   the caller no call at all. *)
let rec probe buckets epoch mask key i =
  let o = i * stride in
  if Array.unsafe_get buckets o <> epoch || Array.unsafe_get buckets (o + 1) = key then o
  else probe buckets epoch mask key ((i + 1) land mask)

let[@inline] locate t key =
  if key < 0 then invalid_arg "Intmap: negative key";
  let buckets = t.buckets and i = (key lxor (key lsr 17)) land t.mask in
  let o = i * stride in
  if Array.unsafe_get buckets o <> t.epoch || Array.unsafe_get buckets (o + 1) = key then o
  else probe buckets t.epoch t.mask key ((i + 1) land t.mask)

let[@inline] find t key =
  let o = locate t key in
  if Array.unsafe_get t.buckets o = t.epoch then Array.unsafe_get t.buckets (o + 2) else absent

let mem t key = find t key >= 0

(* Bind [key] in the free bucket at offset [o], growing first when the
   load factor would pass 1/2 (keeps probe chains short). *)
let rec claim t key value o =
  if 2 * (t.live + 1) > t.mask + 1 then begin
    grow t;
    claim t key value (locate t key)
  end
  else begin
    let buckets = t.buckets in
    buckets.(o) <- t.epoch;
    buckets.(o + 1) <- key;
    buckets.(o + 2) <- value;
    t.live <- t.live + 1
  end

and grow t =
  let old = t.buckets and old_epoch = t.epoch in
  let capacity = 2 * (t.mask + 1) in
  t.buckets <- Array.make (capacity * stride) 0;
  t.mask <- capacity - 1;
  t.epoch <- 1;
  t.live <- 0;
  for i = 0 to (Array.length old / stride) - 1 do
    let o = i * stride in
    if old.(o) = old_epoch then claim t old.(o + 1) old.(o + 2) (locate t old.(o + 1))
  done

let set t key value =
  let o = locate t key in
  if t.buckets.(o) = t.epoch then t.buckets.(o + 2) <- value else claim t key value o

let[@inline] find_or_add t key value =
  let o = locate t key in
  if Array.unsafe_get t.buckets o = t.epoch then Array.unsafe_get t.buckets (o + 2)
  else begin
    claim t key value o;
    absent
  end

let iter f t =
  let buckets = t.buckets in
  for i = 0 to t.mask do
    let o = i * stride in
    if buckets.(o) = t.epoch then f buckets.(o + 1) buckets.(o + 2)
  done
