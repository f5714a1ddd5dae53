(** Minimal CSV emission and parsing. *)

val quote_cell : string -> string
val row_to_string : string list -> string
val write_file : string -> string list list -> unit
(** Write the rows to a file through {!Fs.write_file} (parent directories
    created, atomic replace). *)

val parse_string : string -> string list list
(** Parse the dialect {!row_to_string} emits (quoted cells, doubled quotes,
    newline-terminated rows). Inverse of emission for well-formed input. *)

val read_file : string -> string list list
