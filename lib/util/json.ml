(* Minimal JSON tree, printer and parser — just enough for the telemetry
   exports to be written and read back without an external dependency. *)

type t =
  | Null
  | Bool of bool
  | Int of int
  | Float of float
  | String of string
  | List of t list
  | Obj of (string * t) list

(* -- Printing ---------------------------------------------------------------- *)

let escape_string buffer s =
  Buffer.add_char buffer '"';
  String.iter
    (fun c ->
      match c with
      | '"' -> Buffer.add_string buffer "\\\""
      | '\\' -> Buffer.add_string buffer "\\\\"
      | '\n' -> Buffer.add_string buffer "\\n"
      | '\r' -> Buffer.add_string buffer "\\r"
      | '\t' -> Buffer.add_string buffer "\\t"
      | c when Char.code c < 0x20 -> Buffer.add_string buffer (Printf.sprintf "\\u%04x" (Char.code c))
      | c -> Buffer.add_char buffer c)
    s;
  Buffer.add_char buffer '"'

let float_to_string f =
  if Float.is_nan f then "null"  (* NaN has no JSON encoding *)
  else if Float.is_integer f && Float.abs f < 1e15 then Printf.sprintf "%.1f" f
  else
    (* Shortest decimal form that parses back to the same double. *)
    let short = Printf.sprintf "%.12g" f in
    if float_of_string short = f then short
    else
      let mid = Printf.sprintf "%.15g" f in
      if float_of_string mid = f then mid else Printf.sprintf "%.17g" f

let rec write buffer = function
  | Null -> Buffer.add_string buffer "null"
  | Bool b -> Buffer.add_string buffer (if b then "true" else "false")
  | Int i -> Buffer.add_string buffer (string_of_int i)
  | Float f -> Buffer.add_string buffer (float_to_string f)
  | String s -> escape_string buffer s
  | List items ->
      Buffer.add_char buffer '[';
      List.iteri
        (fun i item ->
          if i > 0 then Buffer.add_char buffer ',';
          write buffer item)
        items;
      Buffer.add_char buffer ']'
  | Obj fields ->
      Buffer.add_char buffer '{';
      List.iteri
        (fun i (key, value) ->
          if i > 0 then Buffer.add_char buffer ',';
          escape_string buffer key;
          Buffer.add_char buffer ':';
          write buffer value)
        fields;
      Buffer.add_char buffer '}'

let to_string value =
  let buffer = Buffer.create 256 in
  write buffer value;
  Buffer.contents buffer

(* -- Parsing ----------------------------------------------------------------- *)

exception Parse_error of string

let parse_error fmt = Printf.ksprintf (fun message -> raise (Parse_error message)) fmt

type cursor = { input : string; mutable pos : int }

let peek c = if c.pos < String.length c.input then Some c.input.[c.pos] else None

let advance c = c.pos <- c.pos + 1

let skip_ws c =
  while
    match peek c with
    | Some (' ' | '\t' | '\n' | '\r') ->
        advance c;
        true
    | _ -> false
  do
    ()
  done

let expect c ch =
  match peek c with
  | Some got when got = ch -> advance c
  | Some got -> parse_error "expected %C at offset %d, got %C" ch c.pos got
  | None -> parse_error "expected %C at offset %d, got end of input" ch c.pos

let expect_literal c literal value =
  let n = String.length literal in
  if c.pos + n <= String.length c.input && String.sub c.input c.pos n = literal then begin
    c.pos <- c.pos + n;
    value
  end
  else parse_error "invalid literal at offset %d" c.pos

(* Encode a BMP code point as UTF-8 (enough for the \uXXXX escapes we accept). *)
let add_utf8 buffer code =
  if code < 0x80 then Buffer.add_char buffer (Char.chr code)
  else if code < 0x800 then begin
    Buffer.add_char buffer (Char.chr (0xC0 lor (code lsr 6)));
    Buffer.add_char buffer (Char.chr (0x80 lor (code land 0x3F)))
  end
  else begin
    Buffer.add_char buffer (Char.chr (0xE0 lor (code lsr 12)));
    Buffer.add_char buffer (Char.chr (0x80 lor ((code lsr 6) land 0x3F)));
    Buffer.add_char buffer (Char.chr (0x80 lor (code land 0x3F)))
  end

let parse_string_body c =
  expect c '"';
  let buffer = Buffer.create 16 in
  let rec loop () =
    match peek c with
    | None -> parse_error "unterminated string at offset %d" c.pos
    | Some '"' -> advance c
    | Some '\\' -> (
        advance c;
        match peek c with
        | Some '"' -> advance c; Buffer.add_char buffer '"'; loop ()
        | Some '\\' -> advance c; Buffer.add_char buffer '\\'; loop ()
        | Some '/' -> advance c; Buffer.add_char buffer '/'; loop ()
        | Some 'n' -> advance c; Buffer.add_char buffer '\n'; loop ()
        | Some 't' -> advance c; Buffer.add_char buffer '\t'; loop ()
        | Some 'r' -> advance c; Buffer.add_char buffer '\r'; loop ()
        | Some 'b' -> advance c; Buffer.add_char buffer '\b'; loop ()
        | Some 'f' -> advance c; Buffer.add_char buffer '\012'; loop ()
        | Some 'u' ->
            advance c;
            if c.pos + 4 > String.length c.input then
              parse_error "truncated \\u escape at offset %d" c.pos;
            let hex = String.sub c.input c.pos 4 in
            (match int_of_string_opt ("0x" ^ hex) with
            | Some code -> add_utf8 buffer code
            | None -> parse_error "invalid \\u escape %S at offset %d" hex c.pos);
            c.pos <- c.pos + 4;
            loop ()
        | Some other -> parse_error "invalid escape \\%C at offset %d" other c.pos
        | None -> parse_error "unterminated escape at offset %d" c.pos)
    | Some ch ->
        advance c;
        Buffer.add_char buffer ch;
        loop ()
  in
  loop ();
  Buffer.contents buffer

let parse_number c =
  let start = c.pos in
  let is_number_char ch =
    match ch with '0' .. '9' | '-' | '+' | '.' | 'e' | 'E' -> true | _ -> false
  in
  while match peek c with Some ch when is_number_char ch -> advance c; true | _ -> false do
    ()
  done;
  let text = String.sub c.input start (c.pos - start) in
  match int_of_string_opt text with
  | Some i -> Int i
  | None -> (
      match float_of_string_opt text with
      | Some f -> Float f
      | None -> parse_error "invalid number %S at offset %d" text start)

let rec parse_value c =
  skip_ws c;
  match peek c with
  | None -> parse_error "unexpected end of input at offset %d" c.pos
  | Some 'n' -> expect_literal c "null" Null
  | Some 't' -> expect_literal c "true" (Bool true)
  | Some 'f' -> expect_literal c "false" (Bool false)
  | Some '"' -> String (parse_string_body c)
  | Some '[' ->
      advance c;
      skip_ws c;
      if peek c = Some ']' then begin
        advance c;
        List []
      end
      else begin
        let rec items acc =
          let item = parse_value c in
          skip_ws c;
          match peek c with
          | Some ',' ->
              advance c;
              items (item :: acc)
          | Some ']' ->
              advance c;
              List.rev (item :: acc)
          | _ -> parse_error "expected ',' or ']' at offset %d" c.pos
        in
        List (items [])
      end
  | Some '{' ->
      advance c;
      skip_ws c;
      if peek c = Some '}' then begin
        advance c;
        Obj []
      end
      else begin
        let rec fields acc =
          skip_ws c;
          let key = parse_string_body c in
          skip_ws c;
          expect c ':';
          let value = parse_value c in
          skip_ws c;
          match peek c with
          | Some ',' ->
              advance c;
              fields ((key, value) :: acc)
          | Some '}' ->
              advance c;
              List.rev ((key, value) :: acc)
          | _ -> parse_error "expected ',' or '}' at offset %d" c.pos
        in
        Obj (fields [])
      end
  | Some ('0' .. '9' | '-') -> parse_number c
  | Some other -> parse_error "unexpected character %C at offset %d" other c.pos

let of_string input =
  try
    let c = { input; pos = 0 } in
    let value = parse_value c in
    skip_ws c;
    if c.pos <> String.length input then
      Error (Printf.sprintf "trailing garbage at offset %d" c.pos)
    else Ok value
  with Parse_error message -> Error message

(* -- Merging ----------------------------------------------------------------- *)

(* Right-biased recursive object merge with a stable, deterministic key
   order: keys already in [base] keep their position (objects merged
   recursively, anything else replaced by [update]'s value); keys new in
   [update] are appended in [update]'s order.  Non-object values take
   [update].  Writing a bench arm's report through [merge] over the
   committed BENCH_*.json therefore refreshes that arm's keys without
   clobbering keys another arm wrote, and re-running the same arms
   reproduces the file byte for byte. *)
let rec merge base update =
  match (base, update) with
  | Obj base_fields, Obj update_fields ->
      let merged =
        List.map
          (fun (key, base_value) ->
            match List.assoc_opt key update_fields with
            | Some update_value -> (key, merge base_value update_value)
            | None -> (key, base_value))
          base_fields
      in
      let appended =
        List.filter (fun (key, _) -> not (List.mem_assoc key base_fields)) update_fields
      in
      Obj (merged @ appended)
  | _, update -> update

(* -- Canonical form ----------------------------------------------------------- *)

(* Recursively sort object keys (stable, byte order).  Producers that build
   objects from hash tables or other iteration-order-dependent sources pass
   their snapshot through [canonical] before [to_string], so metrics and
   telemetry artifacts are byte-diffable across runs.  List order is
   preserved — it is data, not presentation. *)
let rec canonical = function
  | Obj fields ->
      let fields = List.map (fun (key, value) -> (key, canonical value)) fields in
      Obj (List.stable_sort (fun (a, _) (b, _) -> String.compare a b) fields)
  | List items -> List (List.map canonical items)
  | other -> other

(* -- Accessors (for tests and report consumers) ------------------------------ *)

let member key = function Obj fields -> List.assoc_opt key fields | _ -> None

let to_list = function List items -> Some items | _ -> None

let to_float = function
  | Float f -> Some f
  | Int i -> Some (float_of_int i)
  | _ -> None

let to_int = function Int i -> Some i | _ -> None

let to_str = function String s -> Some s | _ -> None

(* -- Committed-artifact rewrite ----------------------------------------------- *)

(* Atomic read-merge-write for committed BENCH_*.json artifacts.  The new
   document is merged over whatever is already on disk (see [merge]) and
   written through [Fs.write_file] (temp file + rename), so an interrupted
   run can never commit a truncated artifact for the perf-regression gate
   to misparse.  An existing file that fails to parse is treated as
   absent. *)
let merge_into_file ~path doc =
  let existing =
    if not (Sys.file_exists path) then Obj []
    else
      let ic = open_in_bin path in
      let contents =
        Fun.protect
          ~finally:(fun () -> close_in ic)
          (fun () -> really_input_string ic (in_channel_length ic))
      in
      match of_string contents with Ok existing -> existing | Error _ -> Obj []
  in
  Fs.write_file path (to_string (merge existing doc) ^ "\n")
