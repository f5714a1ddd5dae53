(* Aligned ASCII tables: how benches print the rows a paper table/figure
   series would contain. *)

type t = { title : string; header : string list; mutable rows : string list list }

let create ~title ~header = { title; header; rows = [] }

let add_row t row = t.rows <- row :: t.rows

let add_rowf t fmt = Format.kasprintf (fun s -> add_row t (String.split_on_char '\t' s)) fmt

let column_widths t =
  let all = t.header :: List.rev t.rows in
  let ncols = List.fold_left (fun acc r -> max acc (List.length r)) 0 all in
  let widths = Array.make ncols 0 in
  let measure row = List.iteri (fun i cell -> widths.(i) <- max widths.(i) (String.length cell)) row in
  List.iter measure all;
  widths

let pad ~left width s =
  let n = width - String.length s in
  if n <= 0 then s else if left then s ^ String.make n ' ' else String.make n ' ' ^ s

(* The first column is left-aligned, the rest right-aligned. *)
let render t =
  let widths = column_widths t in
  let buffer = Buffer.create 256 in
  let line ch =
    Array.iter (fun w -> Buffer.add_string buffer (String.make (w + 2) ch)) widths;
    Buffer.add_char buffer '\n'
  in
  let emit row =
    List.iteri
      (fun i cell ->
        Buffer.add_string buffer (pad ~left:(i = 0) widths.(i) cell);
        Buffer.add_string buffer "  ")
      row;
    Buffer.add_char buffer '\n'
  in
  Buffer.add_string buffer ("== " ^ t.title ^ " ==\n");
  emit t.header;
  line '-';
  List.iter emit (List.rev t.rows);
  Buffer.contents buffer

let print t = print_string (render t)
