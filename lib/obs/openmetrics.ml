(* OpenMetrics / Prometheus text exposition format: renderer and a small
   validating parser (DESIGN.md §8.3).

   The data model is the *lowered* form: a family carries its kind and the
   already-suffixed sample lines ([name_total] for counters, [name_bucket]/
   [name_count]/[name_sum] for histograms), so [parse (render fs)]
   round-trips structurally — the property CI's smoke asserts.  The
   renderer writes families in the order given; the metrics plane sorts
   them by name so exports are byte-stable across runs. *)

type kind = Counter | Gauge | Histogram

let kind_to_string = function Counter -> "counter" | Gauge -> "gauge" | Histogram -> "histogram"

let kind_of_string = function
  | "counter" -> Some Counter
  | "gauge" -> Some Gauge
  | "histogram" -> Some Histogram
  | _ -> None

type sample = {
  s_name : string;  (* full sample name, suffix included *)
  s_labels : (string * string) list;
  s_value : float;
}

type family = { f_name : string; f_kind : kind; f_help : string; f_samples : sample list }

(* -- Rendering ------------------------------------------------------------- *)

let is_name_char c =
  (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z') || (c >= '0' && c <= '9') || c = '_' || c = ':'

let valid_name name =
  name <> ""
  && (match name.[0] with 'a' .. 'z' | 'A' .. 'Z' | '_' | ':' -> true | _ -> false)
  && String.for_all is_name_char name

(* Shortest form that re-parses to the same double; whole numbers render
   without an exponent so the common integer-valued samples stay readable. *)
let render_value v =
  if Float.is_integer v && Float.abs v < 1e15 then Printf.sprintf "%.0f" v
  else
    let short = Printf.sprintf "%.12g" v in
    if float_of_string short = v then short else Printf.sprintf "%.17g" v

let escape_label_value buf s =
  String.iter
    (fun c ->
      match c with
      | '\\' -> Buffer.add_string buf "\\\\"
      | '"' -> Buffer.add_string buf "\\\""
      | '\n' -> Buffer.add_string buf "\\n"
      | c -> Buffer.add_char buf c)
    s

let escape_help buf s =
  String.iter
    (fun c ->
      match c with
      | '\\' -> Buffer.add_string buf "\\\\"
      | '\n' -> Buffer.add_string buf "\\n"
      | c -> Buffer.add_char buf c)
    s

let render_sample buf s =
  Buffer.add_string buf s.s_name;
  (match s.s_labels with
  | [] -> ()
  | labels ->
      Buffer.add_char buf '{';
      List.iteri
        (fun i (k, v) ->
          if i > 0 then Buffer.add_char buf ',';
          Buffer.add_string buf k;
          Buffer.add_string buf "=\"";
          escape_label_value buf v;
          Buffer.add_char buf '"')
        labels;
      Buffer.add_char buf '}');
  Buffer.add_char buf ' ';
  Buffer.add_string buf (render_value s.s_value);
  Buffer.add_char buf '\n'

let render families =
  let buf = Buffer.create 4096 in
  List.iter
    (fun f ->
      Buffer.add_string buf (Printf.sprintf "# TYPE %s %s\n" f.f_name (kind_to_string f.f_kind));
      if f.f_help <> "" then begin
        Buffer.add_string buf (Printf.sprintf "# HELP %s " f.f_name);
        escape_help buf f.f_help;
        Buffer.add_char buf '\n'
      end;
      List.iter (render_sample buf) f.f_samples)
    families;
  Buffer.add_string buf "# EOF\n";
  Buffer.contents buf

(* -- Parsing --------------------------------------------------------------- *)

exception Bad of string

let bad fmt = Printf.ksprintf (fun m -> raise (Bad m)) fmt

let unescape_help s =
  let buf = Buffer.create (String.length s) in
  let n = String.length s in
  let rec loop i =
    if i < n then
      if s.[i] = '\\' && i + 1 < n then begin
        (match s.[i + 1] with
        | 'n' -> Buffer.add_char buf '\n'
        | c -> Buffer.add_char buf c);
        loop (i + 2)
      end
      else begin
        Buffer.add_char buf s.[i];
        loop (i + 1)
      end
  in
  loop 0;
  Buffer.contents buf

(* Suffixes a sample name may add to its family name, per kind. *)
let allowed_suffixes = function
  | Counter -> [ "_total" ]
  | Gauge -> [ "" ]
  | Histogram -> [ "_bucket"; "_count"; "_sum" ]

let sample_belongs family kind sample_name =
  List.exists (fun suffix -> sample_name = family ^ suffix) (allowed_suffixes kind)

let parse_sample_line lineno line =
  let n = String.length line in
  let i = ref 0 in
  while !i < n && is_name_char line.[!i] do
    incr i
  done;
  if !i = 0 then bad "line %d: expected a metric name" lineno;
  let name = String.sub line 0 !i in
  let labels = ref [] in
  if !i < n && line.[!i] = '{' then begin
    incr i;
    let rec parse_label () =
      if !i >= n then bad "line %d: unterminated label set" lineno;
      if line.[!i] = '}' then incr i
      else begin
        let start = !i in
        while !i < n && is_name_char line.[!i] do
          incr i
        done;
        if !i = start then bad "line %d: expected a label name" lineno;
        let key = String.sub line start (!i - start) in
        if !i + 1 >= n || line.[!i] <> '=' || line.[!i + 1] <> '"' then
          bad "line %d: expected =\" after label name" lineno;
        i := !i + 2;
        let buf = Buffer.create 16 in
        let rec value () =
          if !i >= n then bad "line %d: unterminated label value" lineno;
          match line.[!i] with
          | '"' -> incr i
          | '\\' ->
              if !i + 1 >= n then bad "line %d: truncated escape" lineno;
              (match line.[!i + 1] with
              | 'n' -> Buffer.add_char buf '\n'
              | c -> Buffer.add_char buf c);
              i := !i + 2;
              value ()
          | c ->
              Buffer.add_char buf c;
              incr i;
              value ()
        in
        value ();
        labels := (key, Buffer.contents buf) :: !labels;
        if !i < n && line.[!i] = ',' then begin
          incr i;
          parse_label ()
        end
        else if !i < n && line.[!i] = '}' then incr i
        else bad "line %d: expected ',' or '}' in label set" lineno
      end
    in
    parse_label ()
  end;
  if !i >= n || line.[!i] <> ' ' then bad "line %d: expected ' ' before the value" lineno;
  let value_text = String.sub line (!i + 1) (n - !i - 1) in
  let value =
    match value_text with
    | "+Inf" -> Float.infinity
    | "-Inf" -> Float.neg_infinity
    | "NaN" -> Float.nan
    | text -> (
        match float_of_string_opt text with
        | Some v -> v
        | None -> bad "line %d: invalid sample value %S" lineno text)
  in
  { s_name = name; s_labels = List.rev !labels; s_value = value }

let parse text =
  try
    let lines = String.split_on_char '\n' text in
    let families = ref [] in
    (* current family accumulates samples in reverse *)
    let current : (string * kind * string ref * sample list ref) option ref = ref None in
    let close_current () =
      match !current with
      | None -> ()
      | Some (name, kind, help, samples) ->
          families :=
            { f_name = name; f_kind = kind; f_help = !help; f_samples = List.rev !samples }
            :: !families;
          current := None
    in
    let seen_eof = ref false in
    let seen_names = Hashtbl.create 16 in
    List.iteri
      (fun idx line ->
        let lineno = idx + 1 in
        if line = "" then ()  (* only legal as the trailing newline's remnant *)
        else if !seen_eof then bad "line %d: content after # EOF" lineno
        else if line = "# EOF" then begin
          close_current ();
          seen_eof := true
        end
        else if String.length line >= 7 && String.sub line 0 7 = "# TYPE " then begin
          close_current ();
          match String.split_on_char ' ' (String.sub line 7 (String.length line - 7)) with
          | [ name; kind_text ] -> (
              if not (valid_name name) then bad "line %d: invalid family name %S" lineno name;
              if Hashtbl.mem seen_names name then
                bad "line %d: duplicate family %S" lineno name;
              Hashtbl.add seen_names name ();
              match kind_of_string kind_text with
              | Some kind -> current := Some (name, kind, ref "", ref [])
              | None -> bad "line %d: unknown metric kind %S" lineno kind_text)
          | _ -> bad "line %d: malformed # TYPE line" lineno
        end
        else if String.length line >= 7 && String.sub line 0 7 = "# HELP " then begin
          let rest = String.sub line 7 (String.length line - 7) in
          match String.index_opt rest ' ' with
          | None -> bad "line %d: malformed # HELP line" lineno
          | Some i -> (
              let name = String.sub rest 0 i in
              let help = String.sub rest (i + 1) (String.length rest - i - 1) in
              match !current with
              | Some (cur_name, _, help_ref, _) when cur_name = name ->
                  help_ref := unescape_help help
              | _ -> bad "line %d: # HELP for %S outside its family" lineno name)
        end
        else if String.length line >= 1 && line.[0] = '#' then
          bad "line %d: unknown comment directive" lineno
        else begin
          let sample = parse_sample_line lineno line in
          match !current with
          | None -> bad "line %d: sample %S before any # TYPE" lineno sample.s_name
          | Some (name, kind, _, samples) ->
              if not (sample_belongs name kind sample.s_name) then
                bad "line %d: sample %S does not belong to %s family %S" lineno sample.s_name
                  (kind_to_string kind) name;
              (* histogram buckets must carry an [le] label *)
              if kind = Histogram && sample.s_name = name ^ "_bucket"
                 && not (List.mem_assoc "le" sample.s_labels)
              then bad "line %d: _bucket sample without an le label" lineno;
              samples := sample :: !samples
        end)
      lines;
    if not !seen_eof then bad "missing # EOF terminator";
    Ok (List.rev !families)
  with Bad message -> Error message
