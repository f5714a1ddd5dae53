(* CI perf-regression gate over the BENCH_*.json artifacts (ISSUE 9).

   Compares a freshly generated bench artifact against a committed
   baseline and fails (exit 1) with a readable drift table when they
   disagree beyond the policy:

     --mode exact       every leaf byte-equal — for artifacts produced on
                        the deterministic simulator, where any difference
                        is a real behaviour change (or an unvetted
                        baseline refresh);
     --mode tolerance   numeric leaves within a symmetric relative band
                        (default ±25%), non-numeric leaves equal — for
                        wall-clock artifacts compared on the same host.

   --only restricts the walk to named subtrees (e.g. --only sim skips a
   host-dependent "domains" section), --ignore skips subtrees by prefix
   (e.g. --ignore domains.ycsb.config.seed).  Keys present only in the
   fresh artifact are fine (a new arm is not a regression); keys missing
   from it are drift.  A baseline that does not parse is a configuration
   error (exit 2), not drift — the atomic artifact writes
   ([Json.merge_into_file]) exist precisely so truncated files cannot
   reach this gate.  So is a comparison that covers no leaf at all (an
   empty baseline, or --ignore matching everything): the gate never
   passes vacuously.

   Typical CI usage:
     dune exec bench/regress.exe -- \
       --baseline bench/baselines/BENCH_Y1.quick.json \
       --fresh out/BENCH_Y1.json --only sim --mode exact *)

module Json = Partstm_util.Json
module Table = Partstm_util.Table

type policy = Exact | Tolerance of float

type drift = {
  d_path : string;
  d_baseline : string;
  d_fresh : string;
  d_note : string;
}

let load role path =
  if not (Sys.file_exists path) then begin
    Printf.eprintf "regress: %s artifact %s does not exist\n" role path;
    exit 2
  end;
  let ic = open_in_bin path in
  let contents =
    Fun.protect
      ~finally:(fun () -> close_in ic)
      (fun () -> really_input_string ic (in_channel_length ic))
  in
  match Json.of_string contents with
  | Ok doc -> doc
  | Error msg ->
      Printf.eprintf "regress: %s artifact %s does not parse: %s\n" role path msg;
      exit 2

let render = function
  | Json.String s -> s
  | value -> Json.to_string value

let number = function
  | Json.Int i -> Some (float_of_int i)
  | Json.Float f -> Some f
  | _ -> None

let join path key = if path = "" then key else path ^ "." ^ key

(* An --ignore pattern matches a subtree either as a dot-path prefix from
   the comparison root ("domains.ycsb.config") or as a bare key name
   appearing anywhere on the path ("padded_gain_pct", "speedup_vs_1") —
   the latter is how wall-clock gates drop a noise-dominated derived
   metric wherever it nests. *)
let ignored_path ~ignored path =
  let strip_index segment =
    match String.index_opt segment '[' with
    | Some i -> String.sub segment 0 i
    | None -> segment
  in
  let segments = List.map strip_index (String.split_on_char '.' path) in
  List.exists
    (fun pattern ->
      path = pattern
      || String.starts_with ~prefix:(pattern ^ ".") path
      || List.mem pattern segments)
    ignored

(* Walk the baseline; [compared] counts the leaves actually held against
   the fresh artifact, so a gate that silently skipped everything is
   visible in the summary line. *)
let rec diff ~policy ~ignored ~path baseline fresh drifts compared =
  if path <> "" && ignored_path ~ignored path then ()
  else
    match (baseline, fresh) with
    | _, None ->
        drifts :=
          { d_path = path; d_baseline = render baseline; d_fresh = "(missing)"; d_note = "key missing from fresh artifact" }
          :: !drifts
    | Json.Obj base_fields, Some (Json.Obj _ as fresh_doc) ->
        List.iter
          (fun (key, value) ->
            diff ~policy ~ignored ~path:(join path key) value (Json.member key fresh_doc)
              drifts compared)
          base_fields
    | Json.List base_items, Some (Json.List fresh_items)
      when List.length base_items = List.length fresh_items ->
        List.iteri
          (fun i value ->
            diff ~policy ~ignored
              ~path:(Printf.sprintf "%s[%d]" path i)
              value
              (List.nth_opt fresh_items i)
              drifts compared)
          base_items
    | Json.List base_items, Some (Json.List fresh_items) ->
        drifts :=
          {
            d_path = path;
            d_baseline = Printf.sprintf "%d items" (List.length base_items);
            d_fresh = Printf.sprintf "%d items" (List.length fresh_items);
            d_note = "list length changed";
          }
          :: !drifts
    | base_leaf, Some fresh_leaf -> (
        incr compared;
        let record note =
          drifts :=
            { d_path = path; d_baseline = render base_leaf; d_fresh = render fresh_leaf; d_note = note }
            :: !drifts
        in
        match (policy, number base_leaf, number fresh_leaf) with
        | Tolerance tol, Some nb, Some nf ->
            let scale = Float.max (Float.abs nb) (Float.abs nf) in
            let rel = if scale = 0.0 then 0.0 else Float.abs (nf -. nb) /. scale in
            if rel > tol then
              record (Printf.sprintf "drifted %+.1f%% (tolerance ±%.0f%%)" (100.0 *. rel) (100.0 *. tol))
        | Tolerance _, _, _ | Exact, _, _ ->
            if base_leaf <> fresh_leaf then
              record (match policy with Exact -> "differs (byte-exact policy)" | Tolerance _ -> "non-numeric leaf differs"))

let select_subtree path doc =
  List.fold_left
    (fun acc key -> match acc with Some d -> Json.member key d | None -> None)
    (Some doc)
    (String.split_on_char '.' path)

let run baseline_path fresh_path mode tolerance only ignored =
  let policy =
    match mode with
    | "exact" -> Exact
    | "tolerance" -> Tolerance tolerance
    | other ->
        Printf.eprintf "regress: unknown --mode %S (exact | tolerance)\n" other;
        exit 2
  in
  let baseline = load "baseline" baseline_path in
  let fresh = load "fresh" fresh_path in
  let roots =
    match only with
    | [] -> [ ("", baseline, Some fresh) ]
    | paths ->
        List.map
          (fun p ->
            match select_subtree p baseline with
            | Some sub -> (p, sub, select_subtree p fresh)
            | None ->
                Printf.eprintf "regress: --only %s not present in baseline %s\n" p
                  baseline_path;
                exit 2)
          paths
  in
  let drifts = ref [] and compared = ref 0 in
  List.iter
    (fun (path, base_sub, fresh_sub) ->
      diff ~policy ~ignored ~path base_sub fresh_sub drifts compared)
    roots;
  let drifts = List.rev !drifts in
  let policy_label =
    match policy with
    | Exact -> "byte-exact"
    | Tolerance tol -> Printf.sprintf "±%.0f%% on numeric leaves" (100.0 *. tol)
  in
  if drifts = [] && !compared = 0 then begin
    Printf.eprintf
      "regress: %s vs %s: 0 leaves compared (empty baseline, or every leaf matched by \
       --ignore); a gate that compares nothing cannot pass\n"
      baseline_path fresh_path;
    2
  end
  else if drifts = [] then begin
    Printf.printf "regress: OK — %s vs %s: %d leaves compared, no drift (%s%s)\n"
      baseline_path fresh_path !compared policy_label
      (match only with [] -> "" | ps -> Printf.sprintf "; subtrees: %s" (String.concat ", " ps));
    0
  end
  else begin
    let table =
      Table.create
        ~title:
          (Printf.sprintf "regress: %d metric(s) drifted — %s vs %s (%s)" (List.length drifts)
             baseline_path fresh_path policy_label)
        ~header:[ "metric"; "baseline"; "fresh"; "drift" ]
    in
    List.iter
      (fun d -> Table.add_row table [ d.d_path; d.d_baseline; d.d_fresh; d.d_note ])
      drifts;
    Table.print table;
    Printf.printf
      "\nIf the change is intended, refresh the baseline artifact and commit it with the PR.\n";
    1
  end

open Cmdliner

let baseline_arg =
  Arg.(
    required
    & opt (some string) None
    & info [ "baseline" ] ~docv:"PATH" ~doc:"Committed baseline artifact to compare against")

let fresh_arg =
  Arg.(
    required
    & opt (some string) None
    & info [ "fresh" ] ~docv:"PATH" ~doc:"Freshly generated artifact to check")

let mode_arg =
  Arg.(
    value & opt string "exact"
    & info [ "mode" ] ~docv:"MODE"
        ~doc:
          "$(b,exact): every leaf byte-equal (deterministic sim artifacts); \
           $(b,tolerance): numeric leaves within the tolerance band (wall-clock artifacts)")

let tolerance_arg =
  Arg.(
    value & opt float 0.25
    & info [ "tolerance" ] ~docv:"FRAC"
        ~doc:"Relative band for $(b,--mode tolerance) (0.25 = ±25%)")

let only_arg =
  Arg.(
    value & opt_all string []
    & info [ "only" ] ~docv:"KEYPATH"
        ~doc:"Compare only this dot-separated subtree (repeatable), e.g. $(b,--only sim)")

let ignore_arg =
  Arg.(
    value & opt_all string []
    & info [ "ignore" ] ~docv:"KEYPATH"
        ~doc:
          "Skip a subtree by dot-path prefix, or by bare key name wherever it nests \
           (repeatable), e.g. $(b,--ignore padded_gain_pct)")

let cmd =
  let doc = "Diff a fresh bench artifact against a committed BENCH_*.json baseline" in
  Cmd.v
    (Cmd.info "partstm-regress" ~doc)
    Term.(const run $ baseline_arg $ fresh_arg $ mode_arg $ tolerance_arg $ only_arg $ ignore_arg)

let () = exit (Cmd.eval' cmd)
