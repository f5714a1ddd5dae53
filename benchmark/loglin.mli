(** Log-linear latency histogram: every power of two is split into 32
    linear sub-buckets, so any reported percentile is within 1/32 of the
    true value. Values below 32 get one exact bucket each.

    Single-writer and allocation-free on {!observe}: one histogram per
    worker lane, merged after the lanes are joined. *)

type t

val create : unit -> t
val observe : t -> int -> unit
(** Negative values are recorded as 0. *)

val count : t -> int
val sum : t -> int

val percentile : t -> float -> float option
(** [percentile t p] for [p] in \[0, 100\]: the nearest-rank percentile,
    interpolated linearly inside its bucket by rank, so it lies in the same
    bucket as the exact value. [None] when empty. *)

val beyond : t -> float -> int
(** Number of observations ranked above the [p]-th percentile. *)

val merge_into : dst:t -> t -> unit
(** Adds [src]'s observations to [dst]. *)

val to_string : ?scale:float -> t -> float -> string
(** [to_string ~scale t p] prints the [p]-th percentile divided by [scale]
    (default 1.0), or ["n/a"] when [t] is empty. *)
