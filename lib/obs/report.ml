(* ASCII rendering of tracer and metrics-plane data: the tracer's span
   summary, top-K hot-slot table, latency percentile table and slot heatmap
   (whose intensity scale compresses each region's lock table into at most
   [width] columns), plus the SLO and affinity tables. *)

open Partstm_util

let span_summary (tracer : Tracer.t) =
  let table =
    Table.create ~title:"span summary" ~header:[ "metric"; "value" ]
  in
  let attempts = Tracer.attempts tracer in
  let committed = Tracer.committed tracer in
  let aborted = Tracer.aborted tracer in
  let row k v = Table.add_row table [ k; v ] in
  row "attempts" (string_of_int attempts);
  row "committed" (string_of_int committed);
  row "aborted" (string_of_int aborted);
  row "abort rate"
    (if attempts = 0 then "-"
     else Printf.sprintf "%.1f%%" (100.0 *. float_of_int aborted /. float_of_int attempts));
  row "sampling" (Printf.sprintf "1-in-%d" (Tracer.sample_every tracer));
  row "spans kept" (string_of_int (Tracer.kept_spans tracer));
  row "spans evicted" (string_of_int (Tracer.dropped_spans tracer));
  row "tuner decisions" (string_of_int (List.length (Tracer.decisions tracer)));
  table

let hot_slots_table ?(top_k = 10) ?(name_of_region = string_of_int) (tracer : Tracer.t) =
  let table =
    Table.create
      ~title:(Printf.sprintf "top-%d hottest orecs" top_k)
      ~header:[ "partition"; "slot"; "lock-fail"; "reader-wait"; "validation"; "total" ]
  in
  List.iter
    (fun (st : Tracer.slot_total) ->
      Table.add_row table
        [
          name_of_region st.Tracer.st_region;
          string_of_int st.Tracer.st_slot;
          string_of_int st.Tracer.st_lock;
          string_of_int st.Tracer.st_reader;
          string_of_int st.Tracer.st_validation;
          string_of_int (Tracer.slot_weight st);
        ])
    (Tracer.hot_slots ~top_k tracer);
  table

let latency_table ?(name_of_region = string_of_int) (tracer : Tracer.t) =
  let table =
    Table.create ~title:"latency (clock units)"
      ~header:[ "partition"; "metric"; "count"; "mean"; "p50"; "p95"; "p99"; "max" ]
  in
  List.iter
    (fun (rs : Tracer.region_summary) ->
      let add name h =
        (* Empty histograms get an explicit "n/a" row rather than being
           silently dropped: a partition that recorded zero aborts is a
           finding, not a rendering accident. *)
        let s = Histogram.summary h in
        let row =
          if s.Histogram.h_count = 0 then
            [ name_of_region rs.Tracer.rs_region; name; "0"; "n/a"; "n/a"; "n/a"; "n/a"; "n/a" ]
          else
            [
              name_of_region rs.Tracer.rs_region;
              name;
              string_of_int s.Histogram.h_count;
              Printf.sprintf "%.1f" s.Histogram.h_mean;
              string_of_int s.Histogram.h_p50;
              string_of_int s.Histogram.h_p95;
              string_of_int s.Histogram.h_p99;
              string_of_int s.Histogram.h_max;
            ]
        in
        Table.add_row table row
      in
      add "commit" rs.Tracer.rs_commit;
      add "abort" rs.Tracer.rs_abort;
      add "lock-wait" rs.Tracer.rs_lock_wait)
    (Tracer.summary tracer);
  table

(* -- SLO status ------------------------------------------------------------ *)

let slo_table (slo : Slo.t) =
  let table =
    Table.create ~title:"SLO status"
      ~header:
        [ "objective"; "window-n"; "window-val"; "compliance"; "violations"; "burn"; "status" ]
  in
  List.iter
    (fun (st : Slo.status) ->
      Table.add_row table
        [
          Printf.sprintf "%s<%d" st.Slo.st_name st.Slo.st_threshold;
          string_of_int st.Slo.st_window_count;
          (if st.Slo.st_window_count = 0 then "n/a" else string_of_int st.Slo.st_window_value);
          Printf.sprintf "%.4f" st.Slo.st_compliance;
          Printf.sprintf "%d/%d" st.Slo.st_violations st.Slo.st_windows;
          Printf.sprintf "%.2f" st.Slo.st_budget_burn;
          (if st.Slo.st_window_ok then "ok" else "VIOLATED");
        ])
    (Slo.statuses slo);
  table

(* -- Affinity matrix -------------------------------------------------------- *)

let affinity_table ?(name_of_region = string_of_int) (a : Affinity.t) =
  let cells = Affinity.cells a in
  let regions =
    List.sort_uniq compare (List.map (fun c -> c.Affinity.ax_region) cells)
  in
  let workers = List.sort_uniq compare (List.map (fun c -> c.Affinity.ax_worker) cells) in
  let table =
    Table.create ~title:"worker x partition affinity (reads+writes, commits/aborts)"
      ~header:("worker" :: List.map name_of_region regions)
  in
  List.iter
    (fun w ->
      let row =
        List.map
          (fun r ->
            match
              List.find_opt
                (fun c -> c.Affinity.ax_worker = w && c.Affinity.ax_region = r)
                cells
            with
            | None -> "-"
            | Some c ->
                Printf.sprintf "%d %d/%d"
                  (c.Affinity.ax_reads + c.Affinity.ax_writes)
                  c.Affinity.ax_commits c.Affinity.ax_aborts)
          regions
      in
      Table.add_row table (string_of_int w :: row))
    workers;
  table

(* -- Heatmap --------------------------------------------------------------- *)

let intensity_chars = " .:-=+*#%@"

let heatmap ?(width = 64) ?(name_of_region = string_of_int) (tracer : Tracer.t) =
  let buf = Buffer.create 256 in
  let regions = Tracer.summary tracer in
  let label_w =
    List.fold_left
      (fun w rs -> max w (String.length (name_of_region rs.Tracer.rs_region)))
      0 regions
  in
  List.iter
    (fun (rs : Tracer.region_summary) ->
      match rs.Tracer.rs_slots with
      | [] -> ()
      | slots ->
          let max_slot =
            List.fold_left (fun m st -> max m st.Tracer.st_slot) 0 slots
          in
          let cols = min width (max_slot + 1) in
          let per_col = (max_slot + cols) / cols in
          let cells = Array.make cols 0 in
          List.iter
            (fun st ->
              let col = min (cols - 1) (st.Tracer.st_slot / per_col) in
              cells.(col) <- cells.(col) + Tracer.slot_weight st)
            slots;
          let peak = Array.fold_left max 1 cells in
          Buffer.add_string buf
            (Printf.sprintf "%-*s |" label_w (name_of_region rs.Tracer.rs_region));
          Array.iter
            (fun v ->
              let levels = String.length intensity_chars - 1 in
              let i =
                if v = 0 then 0 else 1 + (v * (levels - 1) / peak)
              in
              Buffer.add_char buf intensity_chars.[min levels i])
            cells;
          Buffer.add_string buf
            (Printf.sprintf "| peak=%d (%d slots/col)\n" peak per_col))
    regions;
  if Buffer.length buf = 0 then "(no contention recorded)\n" else Buffer.contents buf
