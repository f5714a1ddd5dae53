(* Deterministic pseudo-random streams.

   The harness needs reproducible runs: every worker (real domain or simulated
   core) owns an independent stream derived from a master seed, so results do
   not depend on scheduling.  splitmix64 seeds an xoshiro256** state. *)

(* The xoshiro state lives in 32 bytes read and written with
   [Bytes.get_int64_le]/[set_int64_le]: inside one function the compiler
   keeps those int64s unboxed, so a draw allocates nothing (four mutable
   [int64] fields would box every store). *)
type t = {
  state : Bytes.t;  (* s0, s1, s2, s3 at byte offsets 0, 8, 16, 24 *)
  master_seed : int;  (* the [make] seed this stream descends from *)
}

let splitmix64_next state =
  let open Int64 in
  state := add !state 0x9E3779B97F4A7C15L;
  let z = !state in
  let z = mul (logxor z (shift_right_logical z 30)) 0xBF58476D1CE4E5B9L in
  let z = mul (logxor z (shift_right_logical z 27)) 0x94D049BB133111EBL in
  logxor z (shift_right_logical z 31)

let of_splitmix state ~master_seed =
  let bytes = Bytes.create 32 in
  for i = 0 to 3 do
    Bytes.set_int64_le bytes (8 * i) (splitmix64_next state)
  done;
  { state = bytes; master_seed }

let make seed = of_splitmix (ref (Int64.of_int seed)) ~master_seed:seed

let split t ~index =
  (* Derive an independent stream; mixing the parent's next output with the
     stream index keeps sibling streams decorrelated. *)
  let s0 = Bytes.get_int64_le t.state 0 in
  let state = ref (Int64.add s0 (Int64.of_int ((index + 1) * 0x2545F491))) in
  of_splitmix state ~master_seed:t.master_seed

(* Every failure report prints one reproducing seed: the master seed
   survives [split], so any derived stream can name the run that made it. *)
let seed t = t.master_seed

(* One xoshiro256** step, returning the 64-bit output shifted right
   (logically) by [shift] and truncated to a native int.  Everything stays
   in this one function so no int64 is boxed. *)
let next t ~shift =
  let open Int64 in
  let st = t.state in
  let s0 = Bytes.get_int64_le st 0 in
  let s1 = Bytes.get_int64_le st 8 in
  let s2 = Bytes.get_int64_le st 16 in
  let s3 = Bytes.get_int64_le st 24 in
  let x = mul s1 5L in
  let result = mul (logor (shift_left x 7) (shift_right_logical x 57)) 9L in
  let tmp = shift_left s1 17 in
  let s2 = logxor s2 s0 in
  let s3 = logxor s3 s1 in
  let s1 = logxor s1 s2 in
  let s0 = logxor s0 s3 in
  let s2 = logxor s2 tmp in
  let s3 = logor (shift_left s3 45) (shift_right_logical s3 19) in
  Bytes.set_int64_le st 0 s0;
  Bytes.set_int64_le st 8 s1;
  Bytes.set_int64_le st 16 s2;
  Bytes.set_int64_le st 24 s3;
  to_int (shift_right_logical result shift)

let bits t = next t ~shift:0 land max_int

(* Rejection sampling to avoid modulo bias.  Top-level recursion: a local
   loop closing over [t] and [bound] would allocate on every draw. *)
let rec int_reject t bound =
  let r = bits t in
  let v = r mod bound in
  if r - v + (bound - 1) < 0 then int_reject t bound else v

let int t bound =
  if bound <= 0 then invalid_arg "Rng.int";
  if Bits.is_power_of_two bound then bits t land (bound - 1) else int_reject t bound

let int_in_range t ~lo ~hi =
  if hi < lo then invalid_arg "Rng.int_in_range";
  lo + int t (hi - lo + 1)

(* The top 53 bits fit a native int exactly, so this is the same float as
   converting the shifted int64. *)
let float t = Float.of_int (next t ~shift:11) *. 0x1p-53

let bool t = bits t land 1 = 1

let chance t ~percent = int t 100 < percent

let shuffle_in_place t a =
  for i = Array.length a - 1 downto 1 do
    let j = int t (i + 1) in
    let tmp = a.(i) in
    a.(i) <- a.(j);
    a.(j) <- tmp
  done

(* Zipf-distributed sampler over [0, n); used for skewed access patterns.
   Precomputes the CDF, sampling is a binary search. *)
type zipf = { cdf : float array }

let zipf ~n ~theta =
  if n <= 0 then invalid_arg "Rng.zipf";
  let weights = Array.init n (fun i -> 1.0 /. Float.pow (float_of_int (i + 1)) theta) in
  let total = Array.fold_left ( +. ) 0.0 weights in
  let cdf = Array.make n 0.0 in
  let acc = ref 0.0 in
  for i = 0 to n - 1 do
    acc := !acc +. (weights.(i) /. total);
    cdf.(i) <- !acc
  done;
  cdf.(n - 1) <- 1.0;
  { cdf }

let zipf_sample t z =
  let u = float t in
  let cdf = z.cdf in
  let n = Array.length cdf in
  let rec search lo hi =
    if lo >= hi then lo
    else
      let mid = (lo + hi) / 2 in
      if cdf.(mid) < u then search (mid + 1) hi else search lo mid
  in
  search 0 (n - 1)
