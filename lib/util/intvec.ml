(* Growable int array with O(1) amortised push and O(1) clear: [Vec]
   specialised to ints.  The element type is known here, so stores are
   plain (no [caml_modify] write barrier) and loads skip the float-array
   check that polymorphic array code performs.  Built for the transaction
   descriptor's int logs (orec keys of reads, locks and visible holds,
   observed orec words). *)

type t = { mutable data : int array; mutable length : int }

let create ?(capacity = 8) () = { data = Array.make (max capacity 1) 0; length = 0 }

let length t = t.length

let grow t =
  let bigger = Array.make (2 * t.length) 0 in
  Array.blit t.data 0 bigger 0 t.length;
  t.data <- bigger

(* The store is unchecked: [grow] has just made room for index [n]. *)
let[@inline] push t x =
  let n = t.length in
  if n = Array.length t.data then grow t;
  Array.unsafe_set t.data n x;
  t.length <- n + 1

let[@inline] get t i =
  if i < 0 || i >= t.length then invalid_arg "Intvec.get";
  t.data.(i)

let clear t = t.length <- 0
