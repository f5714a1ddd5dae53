(* SLO tracker: named latency objectives ("commit_p99 < N") evaluated over
   windows of a cumulative [Util.Histogram] source, with error-budget burn
   accounting (DESIGN.md §8.3).

   An objective "SOURCE_pQ < T" asserts that Q% of observations complete
   within T clock units.  Each [evaluate] closes one window: the source's
   current snapshot minus the previous one ([Histogram.diff]), so window
   percentiles reflect only that period's traffic.  Compliance counts
   observations provably <= T via [Histogram.count_le]; the power-of-two
   buckets make the threshold effectively round down to a bucket boundary,
   which is conservative (violations are never under-reported).

   Error-budget burn is cumulative: with target Q%, the budget allows
   (1 - Q/100) of all observations to miss the threshold; burn is the
   fraction of that allowance already consumed (1.0 = budget exhausted). *)

open Partstm_util

type spec = {
  sp_name : string;  (* e.g. "commit_p99" *)
  sp_source : string;  (* e.g. "commit" — resolved to a histogram by the caller *)
  sp_quantile : float;  (* e.g. 99.0 *)
  sp_threshold : int;  (* clock units *)
}

let target spec = spec.sp_quantile /. 100.0

let spec_to_string spec = Printf.sprintf "%s<%d" spec.sp_name spec.sp_threshold

(* "commit_p99<50000" or "commit_p99.9<50000". *)
let parse text =
  match String.index_opt text '<' with
  | None -> Error (Printf.sprintf "SLO %S: expected NAME<THRESHOLD" text)
  | Some i -> (
      let name = String.sub text 0 i in
      let threshold_text = String.sub text (i + 1) (String.length text - i - 1) in
      match int_of_string_opt threshold_text with
      | None -> Error (Printf.sprintf "SLO %S: invalid threshold %S" text threshold_text)
      | Some threshold when threshold < 0 ->
          Error (Printf.sprintf "SLO %S: negative threshold" text)
      | Some threshold -> (
          (* The quantile is the suffix after the last "_p". *)
          let rec find_p from =
            if from < 0 then None
            else if from + 1 < String.length name && name.[from] = '_' && name.[from + 1] = 'p'
            then Some from
            else find_p (from - 1)
          in
          match find_p (String.length name - 2) with
          | None -> Error (Printf.sprintf "SLO %S: name must end in _p<quantile>" text)
          | Some p -> (
              let source = String.sub name 0 p in
              let quantile_text = String.sub name (p + 2) (String.length name - p - 2) in
              match float_of_string_opt quantile_text with
              | None -> Error (Printf.sprintf "SLO %S: invalid quantile %S" text quantile_text)
              | Some quantile when quantile <= 0.0 || quantile >= 100.0 ->
                  Error (Printf.sprintf "SLO %S: quantile must be in (0, 100)" text)
              | Some _ when source = "" ->
                  Error (Printf.sprintf "SLO %S: empty source name" text)
              | Some quantile ->
                  Ok
                    {
                      sp_name = name;
                      sp_source = source;
                      sp_quantile = quantile;
                      sp_threshold = threshold;
                    })))

type status = {
  st_name : string;
  st_source : string;
  st_quantile : float;
  st_threshold : int;
  st_windows : int;  (* windows evaluated with at least one observation *)
  st_violations : int;
  st_window_count : int;  (* observations in the last window *)
  st_window_value : int;  (* the quantile's value in the last window *)
  st_window_compliance : float;  (* 1.0 when the window was empty *)
  st_window_ok : bool;
  st_total_count : int;
  st_total_good : int;
  st_compliance : float;  (* cumulative *)
  st_budget_burn : float;  (* fraction of the error budget consumed *)
}

type objective = {
  o_spec : spec;
  o_source : unit -> Histogram.t;
  mutable o_prev : Histogram.t;
  mutable o_status : status;
}

type t = { mutable objectives : objective list (* registration order, reversed *) }

let create () = { objectives = [] }

let initial_status spec =
  {
    st_name = spec.sp_name;
    st_source = spec.sp_source;
    st_quantile = spec.sp_quantile;
    st_threshold = spec.sp_threshold;
    st_windows = 0;
    st_violations = 0;
    st_window_count = 0;
    st_window_value = 0;
    st_window_compliance = 1.0;
    st_window_ok = true;
    st_total_count = 0;
    st_total_good = 0;
    st_compliance = 1.0;
    st_budget_burn = 0.0;
  }

let add t spec ~source =
  if List.exists (fun o -> o.o_spec.sp_name = spec.sp_name) t.objectives then
    invalid_arg (Printf.sprintf "Slo.add: objective %s given twice" spec.sp_name);
  let objective =
    { o_spec = spec; o_source = source; o_prev = Histogram.create (); o_status = initial_status spec }
  in
  t.objectives <- objective :: t.objectives;
  objective

let evaluate_objective o =
  let spec = o.o_spec in
  let current = Histogram.copy (o.o_source ()) in
  let window = Histogram.diff ~current ~previous:o.o_prev in
  o.o_prev <- current;
  let prev = o.o_status in
  let window_count = Histogram.count window in
  let window_good = Histogram.count_le window spec.sp_threshold in
  let window_value = Histogram.percentile window spec.sp_quantile in
  let window_compliance =
    if window_count = 0 then 1.0 else float_of_int window_good /. float_of_int window_count
  in
  (* An empty window is vacuously compliant — idle is not an outage. *)
  let window_ok = window_count = 0 || window_compliance >= target spec in
  let total_count = Histogram.count current in
  let total_good = Histogram.count_le current spec.sp_threshold in
  let compliance =
    if total_count = 0 then 1.0 else float_of_int total_good /. float_of_int total_count
  in
  let budget_burn =
    let allowed = (1.0 -. target spec) *. float_of_int total_count in
    let bad = float_of_int (total_count - total_good) in
    if total_count = 0 then 0.0
    else if allowed <= 0.0 then if bad > 0.0 then 1e9 else 0.0
    else Float.min (bad /. allowed) 1e9
  in
  o.o_status <-
    {
      prev with
      st_windows = (prev.st_windows + if window_count > 0 then 1 else 0);
      st_violations = (prev.st_violations + if window_ok then 0 else 1);
      st_window_count = window_count;
      st_window_value = window_value;
      st_window_compliance = window_compliance;
      st_window_ok = window_ok;
      st_total_count = total_count;
      st_total_good = total_good;
      st_compliance = compliance;
      st_budget_burn = budget_burn;
    }

let evaluate t = List.iter evaluate_objective (List.rev t.objectives)

let statuses t = List.rev_map (fun o -> o.o_status) t.objectives

let ok t = List.for_all (fun o -> o.o_status.st_window_ok) t.objectives

let status_json st =
  Json.Obj
    [
      ("name", Json.String st.st_name);
      ("source", Json.String st.st_source);
      ("quantile", Json.Float st.st_quantile);
      ("threshold", Json.Int st.st_threshold);
      ("windows", Json.Int st.st_windows);
      ("violations", Json.Int st.st_violations);
      ("window_count", Json.Int st.st_window_count);
      ("window_value", Json.Int st.st_window_value);
      ("window_compliance", Json.Float st.st_window_compliance);
      ("window_ok", Json.Bool st.st_window_ok);
      ("total_count", Json.Int st.st_total_count);
      ("total_good", Json.Int st.st_total_good);
      ("compliance", Json.Float st.st_compliance);
      ("budget_burn", Json.Float st.st_budget_burn);
    ]

let to_json t =
  Json.canonical
    (Json.Obj
       [
         ("schema", Json.String "partstm.slo/1");
         ( "objectives",
           Json.List
             (statuses t
             |> List.sort (fun a b -> String.compare a.st_name b.st_name)
             |> List.map status_json) );
       ])
