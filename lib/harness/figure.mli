(** Figure rendering: named series over a shared x-axis, as aligned tables,
    CSV files and coarse ASCII plots. *)

open Partstm_util

type t

val create : id:string -> title:string -> xlabel:string -> ylabel:string -> t
val add_series : t -> label:string -> (float * float) list -> unit

val to_table : t -> Table.t
val to_csv_rows : t -> string list list

val save_csv : ?dir:string -> t -> string
(** Writes [dir]/[id].csv through {!Partstm_util.Fs.write_file} (missing
    parent directories are created) and returns the path. *)

val sparkline : ?width:int -> float list -> string
(** One-line ASCII sparkline of the values scaled against their max;
    longer inputs are bucket-averaged down to [width] characters. *)

val ascii_plot : ?height:int -> t -> string
val print : ?plot:bool -> t -> unit
