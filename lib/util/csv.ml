(* Minimal CSV emission and parsing so bench/telemetry series can be
   re-plotted externally and read back in tests. *)

let quote_cell cell =
  if String.exists (fun c -> c = ',' || c = '"' || c = '\n') cell then begin
    let buffer = Buffer.create (String.length cell + 2) in
    Buffer.add_char buffer '"';
    String.iter
      (fun c ->
        if c = '"' then Buffer.add_string buffer "\"\"" else Buffer.add_char buffer c)
      cell;
    Buffer.add_char buffer '"';
    Buffer.contents buffer
  end
  else cell

let row_to_string row = String.concat "," (List.map quote_cell row)

let write_file path rows =
  Fs.write_file path (String.concat "" (List.map (fun row -> row_to_string row ^ "\n") rows))

(* Parser for the dialect [row_to_string] emits: comma separator, double
   quotes around cells containing commas/quotes/newlines, quotes doubled
   inside quoted cells, rows ending in '\n' (final newline optional). *)
let parse_string input =
  let rows = ref [] in
  let row = ref [] in
  let cell = Buffer.create 16 in
  let flush_cell () =
    row := Buffer.contents cell :: !row;
    Buffer.clear cell
  in
  let flush_row () =
    flush_cell ();
    rows := List.rev !row :: !rows;
    row := []
  in
  let n = String.length input in
  let i = ref 0 in
  let in_quotes = ref false in
  while !i < n do
    let c = input.[!i] in
    if !in_quotes then begin
      if c = '"' then
        if !i + 1 < n && input.[!i + 1] = '"' then begin
          Buffer.add_char cell '"';
          incr i
        end
        else in_quotes := false
      else Buffer.add_char cell c
    end
    else begin
      match c with
      | '"' -> in_quotes := true
      | ',' -> flush_cell ()
      | '\n' -> flush_row ()
      | '\r' -> ()  (* tolerate CRLF input *)
      | c -> Buffer.add_char cell c
    end;
    incr i
  done;
  if Buffer.length cell > 0 || !row <> [] then flush_row ();
  List.rev !rows

let read_file path =
  let ic = open_in_bin path in
  Fun.protect
    ~finally:(fun () -> close_in ic)
    (fun () -> parse_string (really_input_string ic (in_channel_length ic)))
