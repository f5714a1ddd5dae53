(** Aligned ASCII tables for benchmark/report output. *)

type t

val create : title:string -> header:string list -> t
val add_row : t -> string list -> unit

val add_rowf : t -> ('a, Format.formatter, unit, unit) format4 -> 'a
(** Format a row; tab characters separate cells. *)

val render : t -> string
(** The first column left-aligned, the rest right-aligned. *)

val print : t -> unit
