(* Power-of-two bucketed histogram for non-negative integer observations
   (latencies in cycles, read-set sizes, ...).  Single-writer. *)

type t = { buckets : int array; mutable count : int; mutable sum : int; mutable max_seen : int }

let bucket_count = 62

let create () = { buckets = Array.make bucket_count 0; count = 0; sum = 0; max_seen = 0 }

let bucket_of_value v = if v <= 0 then 0 else Bits.floor_log2 v + 1

let observe t v =
  let v = max v 0 in
  let b = min (bucket_of_value v) (bucket_count - 1) in
  t.buckets.(b) <- t.buckets.(b) + 1;
  t.count <- t.count + 1;
  t.sum <- t.sum + v;
  if v > t.max_seen then t.max_seen <- v

let count t = t.count
let sum t = t.sum
let mean t = if t.count = 0 then 0.0 else float_of_int t.sum /. float_of_int t.count
let max_value t = t.max_seen

(* Reported bound of bucket [b]: bucket 0 holds exactly 0, bucket b >= 1
   holds [2^(b-1), 2^b - 1] (all below the bound 2^b). *)
let bucket_upper b = if b = 0 then 0 else 1 lsl b

let buckets t =
  let rec collect b acc =
    if b < 0 then acc
    else if t.buckets.(b) = 0 then collect (b - 1) acc
    else collect (b - 1) ((bucket_upper b, t.buckets.(b)) :: acc)
  in
  collect (bucket_count - 1) []

let percentile t p =
  (* Upper bound of the bucket containing the p-th percentile.  The target
     rank is clamped to at least 1 so that p = 0 lands on the first
     non-empty bucket (the minimum observation's bucket) rather than on
     bucket 0 even when bucket 0 is empty. *)
  if t.count = 0 then 0
  else
    let target = max 1 (int_of_float (Float.ceil (p /. 100.0 *. float_of_int t.count))) in
    let rec loop acc b =
      if b >= bucket_count then t.max_seen
      else
        let acc = acc + t.buckets.(b) in
        if acc >= target then bucket_upper b else loop acc (b + 1)
    in
    loop 0 0

(* Observations known to be <= [limit]: the buckets whose reported bound
   is <= [limit].  A bucket whose bound exceeds [limit] counts as above it,
   so thresholds effectively round down to a power of two — conservative
   for SLO accounting (never under-reports violations). *)
let count_le t limit =
  let rec loop acc b =
    if b >= bucket_count || bucket_upper b > limit then acc
    else loop (acc + t.buckets.(b)) (b + 1)
  in
  if limit < 0 then 0 else loop 0 0

let merge_into ~dst src =
  Array.iteri (fun i n -> dst.buckets.(i) <- dst.buckets.(i) + n) src.buckets;
  dst.count <- dst.count + src.count;
  dst.sum <- dst.sum + src.sum;
  if src.max_seen > dst.max_seen then dst.max_seen <- src.max_seen

let copy t =
  { buckets = Array.copy t.buckets; count = t.count; sum = t.sum; max_seen = t.max_seen }

(* Bucket-wise window between two snapshots of the same (monotonically
   growing) histogram.  The window maximum is not derivable from bucket
   counts, so [max_seen] is carried over from [current] (cumulative max —
   documented in the mli). *)
let diff ~current ~previous =
  let d = create () in
  for b = 0 to bucket_count - 1 do
    d.buckets.(b) <- max 0 (current.buckets.(b) - previous.buckets.(b))
  done;
  d.count <- max 0 (current.count - previous.count);
  d.sum <- max 0 (current.sum - previous.sum);
  d.max_seen <- current.max_seen;
  d

let reset t =
  Array.fill t.buckets 0 bucket_count 0;
  t.count <- 0;
  t.sum <- 0;
  t.max_seen <- 0

let to_json t =
  Json.Obj
    [
      ("count", Json.Int t.count);
      ("sum", Json.Int t.sum);
      ("mean", Json.Float (mean t));
      ("max", Json.Int t.max_seen);
      ("p50", Json.Int (percentile t 50.0));
      ("p95", Json.Int (percentile t 95.0));
      ("p99", Json.Int (percentile t 99.0));
      ( "buckets",
        Json.List
          (List.map
             (fun (upper, n) -> Json.Obj [ ("le", Json.Int upper); ("n", Json.Int n) ])
             (buckets t)) );
    ]

(* Single-record summary for reports.  Total on all inputs: an empty
   histogram yields the all-zero summary (count 0 distinguishes it), never
   NaN or an exception — Report.latency_table renders it as "n/a". *)
type summary = {
  h_count : int;
  h_sum : int;
  h_mean : float;
  h_max : int;
  h_p50 : int;
  h_p95 : int;
  h_p99 : int;
}

let summary t =
  {
    h_count = t.count;
    h_sum = t.sum;
    h_mean = mean t;
    h_max = t.max_seen;
    h_p50 = percentile t 50.0;
    h_p95 = percentile t 95.0;
    h_p99 = percentile t 99.0;
  }

let pp ppf t =
  Fmt.pf ppf "count=%d mean=%.1f max=%d p50<=%d p99<=%d" t.count (mean t) t.max_seen
    (percentile t 50.0) (percentile t 99.0)
