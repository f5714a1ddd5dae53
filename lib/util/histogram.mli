(** Power-of-two bucketed histogram for non-negative integers. Single-writer;
    concurrent readers may observe torn (but memory-safe) snapshots. *)

type t

val create : unit -> t
val observe : t -> int -> unit
val count : t -> int

val sum : t -> int
(** Sum of all observed values. *)

val mean : t -> float
(** [0.0] when the histogram is empty. *)

val max_value : t -> int

val percentile : t -> float -> int
(** Upper bound of the bucket containing the requested percentile. [p = 0]
    names the first non-empty bucket (the minimum observation's bucket). *)

val buckets : t -> (int * int) list
(** Non-empty buckets as [(upper bound, count)], ascending. Bucket 0
    holds exactly the value 0 (bound 0); bucket [b >= 1] holds
    [[2^(b-1), 2^b - 1]] and reports the bound [2^b], so the value 4 is
    listed under 8 and the value 1 under 2. *)

val to_json : t -> Json.t
(** Summary object: count/sum/mean/max, p50/p95/p99, and {!buckets}. *)

val count_le : t -> int -> int
(** Observations known to be [<= limit]: the total count of buckets whose
    reported bound (see {!buckets}) is [<= limit]. A bucket whose bound
    exceeds [limit] counts as above it, so thresholds effectively round
    down to a power of two — conservative for SLO accounting (never
    under-reports violations). [0] for a negative [limit]. *)

val merge_into : dst:t -> t -> unit
val copy : t -> t

val diff : current:t -> previous:t -> t
(** Bucket-wise window between two snapshots of the same monotonically
    growing histogram: counts, sum and buckets are the differences
    (clamped at 0). The window maximum is not derivable from bucket
    counts, so the result carries [current]'s cumulative max. *)

type summary = {
  h_count : int;
  h_sum : int;
  h_mean : float;
  h_max : int;
  h_p50 : int;
  h_p95 : int;
  h_p99 : int;
}
(** Single-record summary for reports. *)

val summary : t -> summary
(** Total on all inputs: an empty histogram yields the all-zero summary
    ([h_count = 0] distinguishes it) — never NaN and never an exception.
    Report renderers show such rows as ["n/a"]. *)

val reset : t -> unit
val pp : Format.formatter -> t -> unit
