(* Growable array with O(1) amortised push and O(1) clear, reused across
   transaction attempts to avoid per-retry allocation.  A dummy element fills
   unused capacity (OCaml arrays cannot be partially initialised). *)

type 'a t = { mutable data : 'a array; mutable length : int; dummy : 'a }

let create ?(capacity = 8) ~dummy () = { data = Array.make (max capacity 1) dummy; length = 0; dummy }

let length t = t.length
let is_empty t = t.length = 0

let push t x =
  if t.length = Array.length t.data then begin
    let bigger = Array.make (2 * t.length) t.dummy in
    Array.blit t.data 0 bigger 0 t.length;
    t.data <- bigger
  end;
  t.data.(t.length) <- x;
  t.length <- t.length + 1

let get t i =
  if i < 0 || i >= t.length then invalid_arg "Vec.get";
  t.data.(i)

let clear t = t.length <- 0

(* Bounded deep clear: only the used prefix can hold non-dummy elements
   (push never skips slots), so overwriting [0, length) releases every
   reference in O(length) rather than O(capacity).  An empty vec skips the
   [Array.fill] C call: most transactions leave most of their six logs
   empty, and the call's fixed cost is then the whole cost. *)
let wipe t =
  if t.length > 0 then begin
    Array.fill t.data 0 t.length t.dummy;
    t.length <- 0
  end

let resident t =
  let n = ref 0 in
  Array.iter (fun x -> if x != t.dummy then incr n) t.data;
  !n

let iter f t =
  for i = 0 to t.length - 1 do
    f t.data.(i)
  done
