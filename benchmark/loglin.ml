(* Bucket index of a value v with most significant bit e: for e >= 5, drop
   the e - 5 low bits, which leaves 32 + (v's next 5 bits), and offset by
   (e - 5) * 32; values below 64 land on exact buckets. The largest native
   int has msb 61, hence 57 shifted bucket groups plus the exact prefix. *)
let sub_bits = 5
let subs = 1 lsl sub_bits
let buckets = (62 - sub_bits + 1) * subs

type t = {
  counts : int array;
  mutable n : int;
  mutable total : int;
  mutable lo : int;
  mutable hi : int;
}

let create () = { counts = Array.make buckets 0; n = 0; total = 0; lo = max_int; hi = 0 }

let msb v =
  let v = ref v and r = ref 0 in
  if !v lsr 32 <> 0 then begin v := !v lsr 32; r := 32 end;
  if !v lsr 16 <> 0 then begin v := !v lsr 16; r := !r + 16 end;
  if !v lsr 8 <> 0 then begin v := !v lsr 8; r := !r + 8 end;
  if !v lsr 4 <> 0 then begin v := !v lsr 4; r := !r + 4 end;
  if !v lsr 2 <> 0 then begin v := !v lsr 2; r := !r + 2 end;
  if !v lsr 1 <> 0 then r := !r + 1;
  !r

let index v =
  if v < subs then v
  else
    let shift = msb v - sub_bits in
    (shift * subs) + (v lsr shift)

(* Inclusive integer range [low, low + width - 1] of bucket [i]. *)
let shift_of i = max 0 ((i / subs) - 1)
let low i = (i - (shift_of i * subs)) lsl shift_of i
let width i = 1 lsl shift_of i

let observe t v =
  let v = if v < 0 then 0 else v in
  let i = index v in
  t.counts.(i) <- t.counts.(i) + 1;
  t.n <- t.n + 1;
  t.total <- t.total + v;
  if v < t.lo then t.lo <- v;
  if v > t.hi then t.hi <- v

let count t = t.n
let sum t = t.total

let rank t p = Float.max 1.0 (Float.min (float_of_int t.n) (p /. 100.0 *. float_of_int t.n))

let percentile t p =
  if t.n = 0 then None
  else
    let r = rank t p in
    let k = int_of_float (Float.ceil r) in
    let rec find i before =
      let c = t.counts.(i) in
      if before + c >= k then (i, before, c) else find (i + 1) (before + c)
    in
    let i, before, c = find 0 0 in
    let frac = (r -. float_of_int before) /. float_of_int c in
    let v = float_of_int (low i) +. (frac *. float_of_int (width i - 1)) in
    Some (Float.min (float_of_int t.hi) (Float.max (float_of_int t.lo) v))

let beyond t p = if t.n = 0 then 0 else t.n - int_of_float (Float.ceil (rank t p))

let merge_into ~dst src =
  Array.iteri (fun i c -> dst.counts.(i) <- dst.counts.(i) + c) src.counts;
  dst.n <- dst.n + src.n;
  dst.total <- dst.total + src.total;
  dst.lo <- min dst.lo src.lo;
  dst.hi <- max dst.hi src.hi

let to_string ?(scale = 1.0) t p =
  match percentile t p with None -> "n/a" | Some v -> Printf.sprintf "%.3f" (v /. scale)
