(** Cache-line-padded atomics (OCaml 5.1 stand-in for
    [Atomic.make_contended]): the atomic's heap block is allocated with
    trailing padding words so no two padded atomics share a cache line.
    Semantics are identical to [Atomic.make]; only the block size differs. *)

val cache_line_words : int
(** Words per padded block (128 bytes on 64-bit: defeats false sharing and
    adjacent-line prefetch pairing). *)

val atomic_int : int -> int Atomic.t
(** A fresh atomic on its own cache line. *)

val atomic_array : len:int -> int -> int Atomic.t array
(** [len] independent padded atomics, each initialised to the given value. *)

val block_fields : int Atomic.t -> int
(** Field count of the block backing [a], header excluded — what
    [Obj.size] returns (diagnostic; [cache_line_words] for padded atomics,
    1 for [Atomic.make], whose block is 2 words with its header). *)
