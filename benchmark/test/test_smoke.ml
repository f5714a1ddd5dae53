(* Plumbing smoke test: every workload for one short round (no warm-up,
   traced, so both metric lists are produced); every metric BENCHMARK.json
   names must be printed for every workload with a finite value. *)

open Partstm_util

let names_of key doc =
  match Option.bind (Json.member key doc) Json.to_list with
  | Some items -> List.filter_map (fun m -> Option.bind (Json.member "name" m) Json.to_str) items
  | None -> Alcotest.failf "BENCHMARK.json: no %s list" key

let read_all ic =
  let rec loop acc = match input_line ic with line -> loop (line :: acc) | exception End_of_file -> List.rev acc in
  loop []

let test_every_metric_printed () =
  let spec =
    match Json.of_string (In_channel.with_open_bin "../../BENCHMARK.json" In_channel.input_all) with
    | Ok doc -> doc
    | Error e -> Alcotest.failf "BENCHMARK.json: %s" e
  in
  let workloads = names_of "workloads" spec in
  let metrics = names_of "end_to_end" spec @ names_of "per_layer" spec in
  let ic =
    Unix.open_process_args_in "../main.exe"
      [| "../main.exe"; "--smoke"; "--trace"; "1"; "--seconds"; "0.2" |]
  in
  let lines = read_all ic in
  (match Unix.close_process_in ic with
  | Unix.WEXITED 0 -> ()
  | _ -> Alcotest.failf "benchmark exited non-zero:\n%s" (String.concat "\n" lines));
  let printed = Hashtbl.create 256 in
  List.iter
    (fun line ->
      match String.split_on_char ' ' line with
      | w :: m :: v :: _ -> Option.iter (fun v -> Hashtbl.replace printed (w, m) v) (float_of_string_opt v)
      | _ -> ())
    lines;
  List.iter
    (fun w ->
      List.iter
        (fun m ->
          match Hashtbl.find_opt printed (w, m) with
          | Some v when Float.is_finite v -> ()
          | Some v -> Alcotest.failf "%s %s is %f" w m v
          | None -> Alcotest.failf "%s %s not printed" w m)
        metrics)
    workloads;
  let last = List.nth lines (List.length lines - 1) in
  match Json.of_string last with
  | Ok doc ->
      Alcotest.(check (option bool)) "correct" (Some true)
        (Option.bind (Json.member "correct" doc) (function Json.Bool b -> Some b | _ -> None));
      Alcotest.(check (option int)) "failed" (Some 0) (Option.bind (Json.member "failed" doc) Json.to_int)
  | Error e -> Alcotest.failf "last line is not JSON (%s): %s" e last

let () =
  Alcotest.run "benchmark-smoke"
    [ ("smoke", [ Alcotest.test_case "every BENCHMARK.json metric printed" `Quick test_every_metric_printed ]) ]
