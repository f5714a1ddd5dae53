(** Minimal JSON tree, printer and parser (no external dependency); used by
    the telemetry exports. *)

type t =
  | Null
  | Bool of bool
  | Int of int
  | Float of float
  | String of string
  | List of t list
  | Obj of (string * t) list

val to_string : t -> string
(** Compact one-line rendering. NaN floats become [null]. *)

val of_string : string -> (t, string) result
(** Parse a complete JSON document (trailing garbage is an error). *)

val merge : t -> t -> t
(** [merge base update]: right-biased recursive object merge with a stable
    key order — [base]'s keys keep their position (objects merged
    recursively, other values replaced), [update]'s new keys are appended
    in order; non-object values take [update]. Lets a bench arm refresh
    its keys in a committed report without clobbering other arms'. *)

val canonical : t -> t
(** Recursively sort object keys (stable, byte order); list order is
    preserved. Pass snapshots built from iteration-order-dependent sources
    (hash tables) through [canonical] before {!to_string} so exported
    artifacts are byte-diffable across runs. *)

val member : string -> t -> t option
val to_list : t -> t list option
val to_float : t -> float option
val to_int : t -> int option
val to_str : t -> string option

val merge_into_file : path:string -> t -> unit
(** [merge_into_file ~path doc] merges [doc] over the JSON document at
    [path] (missing or unparseable files count as empty) and rewrites the
    file atomically through {!Fs.write_file}, so a crashed or interrupted
    run can never leave a truncated artifact behind. *)
