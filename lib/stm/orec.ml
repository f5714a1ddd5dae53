(* Ownership-record word encoding.

   An orec is one [int Atomic.t] in a region's lock table:
   - bit 0 clear -> unlocked; bits 1.. hold the commit version
   - bit 0 set   -> write-locked; bits 1-20 hold the owner descriptor id,
                    bits 21-61 the version of the word the lock replaced
                    (TinySTM's PREV_LOCK), so the owner validates and
                    rolls back from the word alone

   [Engine.next_descriptor_id] and [Engine.tick] fail past [max_owner] and
   [max_version] rather than wrap; bit 62 (the sign) stays clear.
   Versions only grow, so a CAS from an observed unlocked word cannot
   suffer ABA. *)

let locked_bit = 1
let owner_bits = 20
let version_shift = 1 + owner_bits
let max_owner = (1 lsl owner_bits) - 1
let max_version = (1 lsl 41) - 1

let is_locked word = word land locked_bit <> 0
let owner word = (word lsr 1) land max_owner
let version word = word lsr 1
let make_version version = version lsl 1
let prev word = make_version (word lsr version_shift)

let make_locked ~owner ~prev =
  (version prev lsl version_shift) lor (owner lsl 1) lor locked_bit

let locked_by word ~owner:descriptor_id = is_locked word && owner word = descriptor_id
