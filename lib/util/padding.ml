(* Cache-line padding for contended atomics.

   OCaml 5.1 has no [Atomic.make_contended] (that arrives in 5.2) and no
   atomic arrays, so an `int Atomic.t array` is an array of pointers to
   2-word heap blocks; the allocator packs those blocks back to back and up
   to four of them share one 64-byte cache line.  Under real domains every
   CAS on one orec then invalidates its neighbours' lines — classic false
   sharing, measured by bench/exp_d1.

   [atomic_int] is the portable stand-in: it allocates the atomic's block
   with [cache_line_words - 1] unused trailing words, so the mutable word
   and the next block's mutable word can never share a line (128 bytes also
   clears the adjacent-line prefetcher).  This is the same technique as
   multicore-magic's [copy_as_padded] / OCaml 5.2's [Atomic.make_contended]:
   an [Atomic.t] is a single-field block and none of its operations read
   the block size, so a longer block behaves identically.  The padding
   words are immediate ints, so the GC scans them for free.  [Tvar] uses
   the same fact the other way round: a tvar record's field 0 is its
   committed value, read and written through an [Atomic.t] view of the
   record, so the value needs no box of its own.

   Only [int] payloads are exposed: an immediate payload keeps the padded
   block pointer-free in practice and sidesteps any question about what the
   GC does with the spare fields. *)

let cache_line_words = 16  (* 128 bytes on 64-bit: 2 lines, beats prefetch pairing *)

let atomic_int initial : int Atomic.t =
  let block = Obj.new_block 0 cache_line_words in
  Obj.set_field block 0 (Obj.repr (Sys.opaque_identity initial));
  for i = 1 to cache_line_words - 1 do
    Obj.set_field block i (Obj.repr 0)
  done;
  (Obj.magic block : int Atomic.t)

let atomic_array ~len initial = Array.init len (fun _ -> atomic_int initial)

(* Diagnostic for tests: the field count of the block backing an atomic,
   header excluded ([Obj.size]): 1 for a packed box, [cache_line_words]
   for a padded one. *)
let block_fields (a : int Atomic.t) = Obj.size (Obj.repr a)
