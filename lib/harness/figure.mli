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

val sparkline : float list -> string
(** One-line ASCII sparkline of the values scaled against their max;
    longer inputs are bucket-averaged down to 40 characters. *)

val ascii_plot : t -> string
(** 12 rows, one column per x value. *)

val print : t -> unit
(** The figure's table, then its {!ascii_plot}. *)
