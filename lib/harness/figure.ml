(* A "figure" is a family of named series over a shared x-axis (typically
   thread count or time), rendered as an aligned table, a CSV file, and a
   coarse ASCII plot — the bench harness's equivalents of the paper's
   plots. *)

open Partstm_util

type series = { label : string; points : (float * float) list }

type t = {
  id : string;
  title : string;
  xlabel : string;
  ylabel : string;
  mutable series : series list;  (* newest first *)
}

let create ~id ~title ~xlabel ~ylabel = { id; title; xlabel; ylabel; series = [] }

let add_series t ~label points = t.series <- { label; points } :: t.series

let all_series t = List.rev t.series

let xs t =
  let collect acc s = List.fold_left (fun acc (x, _) -> x :: acc) acc s.points in
  List.sort_uniq compare (List.fold_left collect [] t.series)

let value_at s x = List.assoc_opt x s.points

let format_value v =
  if Float.abs v >= 1000.0 then Printf.sprintf "%.0f" v
  else if Float.abs v >= 10.0 then Printf.sprintf "%.1f" v
  else Printf.sprintf "%.3f" v

let format_x x = if Float.is_integer x then Printf.sprintf "%.0f" x else Printf.sprintf "%.2f" x

let to_table t =
  let series = all_series t in
  let header = t.xlabel :: List.map (fun s -> s.label) series in
  let table = Table.create ~title:(Printf.sprintf "[%s] %s  (y: %s)" t.id t.title t.ylabel) ~header in
  List.iter
    (fun x ->
      let row =
        format_x x
        :: List.map
             (fun s -> match value_at s x with Some v -> format_value v | None -> "-")
             series
      in
      Table.add_row table row)
    (xs t);
  table

let to_csv_rows t =
  let series = all_series t in
  let header = t.xlabel :: List.map (fun s -> s.label) series in
  header
  :: List.map
       (fun x ->
         format_x x
         :: List.map
              (fun s -> match value_at s x with Some v -> Printf.sprintf "%.6g" v | None -> "")
              series)
       (xs t)

let save_csv ?(dir = "results") t =
  let path = Filename.concat dir (t.id ^ ".csv") in
  Csv.write_file path (to_csv_rows t);
  path

(* One-line ASCII sparkline: each value scaled against the max into a ramp
   character; wider inputs are bucket-averaged down to 40 characters. *)
let sparkline values =
  let width = 40 in
  let ramp = " .:-=+*#@" in
  let levels = String.length ramp in
  let values = Array.of_list values in
  let n = Array.length values in
  if n = 0 then ""
  else begin
    let buckets = min width n in
    let condensed =
      Array.init buckets (fun b ->
          let lo = b * n / buckets and hi = max (((b + 1) * n / buckets) - 1) (b * n / buckets) in
          let sum = ref 0.0 in
          for i = lo to hi do
            sum := !sum +. values.(i)
          done;
          !sum /. float_of_int (hi - lo + 1))
    in
    let vmax = Array.fold_left Float.max 0.0 condensed in
    if vmax <= 0.0 then String.make buckets ramp.[0]
    else
      String.init buckets (fun b ->
          let level = int_of_float (condensed.(b) /. vmax *. float_of_int (levels - 1)) in
          ramp.[max 0 (min (levels - 1) level)])
  end

(* Coarse ASCII plot: one mark per series per x position; y is scaled into
   12 rows.  Enough to eyeball the shapes the paper's figures show. *)
let ascii_plot t =
  let height = 12 in
  let series = all_series t in
  let xs = xs t in
  if series = [] || xs = [] then ""
  else begin
    let marks = [| '*'; 'o'; '+'; 'x'; '#'; '@'; '%'; '&' |] in
    let ymax =
      List.fold_left
        (fun acc s -> List.fold_left (fun acc (_, y) -> Float.max acc y) acc s.points)
        0.0 series
    in
    let ymax = if ymax <= 0.0 then 1.0 else ymax in
    let ncols = List.length xs in
    let grid = Array.make_matrix height ncols ' ' in
    List.iteri
      (fun si s ->
        let mark = marks.(si mod Array.length marks) in
        List.iteri
          (fun ci x ->
            match value_at s x with
            | Some y ->
                let row = int_of_float (y /. ymax *. float_of_int (height - 1)) in
                let row = height - 1 - max 0 (min (height - 1) row) in
                grid.(row).(ci) <- (if grid.(row).(ci) = ' ' then mark else '?')
            | None -> ())
          xs)
      series;
    let buffer = Buffer.create 512 in
    Buffer.add_string buffer (Printf.sprintf "%s (ymax=%s)\n" t.title (format_value ymax));
    Array.iter
      (fun row ->
        Buffer.add_string buffer "  |";
        Array.iter (fun c -> Buffer.add_string buffer (Printf.sprintf " %c " c)) row;
        Buffer.add_char buffer '\n')
      grid;
    Buffer.add_string buffer "  +";
    List.iter (fun _ -> Buffer.add_string buffer "---") xs;
    Buffer.add_char buffer '\n';
    Buffer.add_string buffer "   ";
    List.iter (fun x -> Buffer.add_string buffer (Printf.sprintf "%2s " (format_x x))) xs;
    Buffer.add_string buffer (Printf.sprintf "  (%s)\n" t.xlabel);
    List.iteri
      (fun si s ->
        Buffer.add_string buffer
          (Printf.sprintf "   %c = %s\n" marks.(si mod Array.length marks) s.label))
      series;
    Buffer.contents buffer
  end

let print t =
  Table.print (to_table t);
  print_string (ascii_plot t);
  print_newline ()
