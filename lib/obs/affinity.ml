(* Worker × partition access-affinity matrix (DESIGN.md §8.3): an [Engine]
   tap that accumulates reads / writes / commits / aborts per
   (worker, region) cell, plus whole-attempt commit and abort latency
   histograms — the direct input for sharing-aware thread-and-data mapping
   (ROADMAP item 1) and the latency source for the SLO tracker.

   Commit/abort attribution leans on the [rec_touch] contract: the engine
   reports each region exactly once per attempt that activates it, and the
   per-region commit/abort counters in [Region_stats] are bumped for
   exactly the activated regions.  Tracking the touched-region set per
   in-flight attempt therefore lets the matrix bump the same cells the
   engine bumps, and per-region sums over workers reconcile *exactly* with
   [Region_stats] commit/abort totals once the worker domains have joined
   (asserted by test/test_metrics.ml under 4 real domains).

   Read/write cells count engine-observed access *events* ([rec_read] /
   [rec_write]), which dedup repeat holds differently from the raw
   [Region_stats] read counter — close, but only commits/aborts are exact.

   Sharded by descriptor id exactly like [Tracer]: single
   writer per shard below the collision threshold, merge at read time. *)

open Partstm_util
open Partstm_stm

type cell = {
  mutable cl_reads : int;
  mutable cl_writes : int;
  mutable cl_commits : int;
  mutable cl_aborts : int;
}

type shard = {
  cells : (int, cell) Hashtbl.t;  (* key = worker lsl 32 lor region *)
  commit_h : Histogram.t;
  abort_h : Histogram.t;
  mutable s_active : bool;
  mutable s_txn : int;
  mutable s_worker : int;
  mutable s_begin : int;
  mutable s_touched : int list;  (* region ids touched by the current attempt *)
  mutable s_last_key : int;  (* one-entry cell cache: consecutive accesses *)
  mutable s_last_cell : cell option;  (* overwhelmingly hit the same (worker, region) *)
}

type t = {
  shards : shard option array;
  mutable clock : unit -> int;
  mutable tap : (Engine.t * int) option;
}

let default_clock () = 0

let create ?(shards = 1024) () =
  if shards <= 0 then invalid_arg "Affinity.create: shards";
  { shards = Array.make shards None; clock = default_clock; tap = None }

let set_clock t clock = t.clock <- clock
let clear_clock t = t.clock <- default_clock

let make_shard () =
  {
    cells = Hashtbl.create 32;
    commit_h = Histogram.create ();
    abort_h = Histogram.create ();
    s_active = false;
    s_txn = -1;
    s_worker = -1;
    s_begin = 0;
    s_touched = [];
    s_last_key = -1;
    s_last_cell = None;
  }

let shard_of t txn =
  let i = txn mod Array.length t.shards in
  let i = if i < 0 then i + Array.length t.shards else i in
  match t.shards.(i) with
  | Some s -> s
  | None ->
      let s = make_shard () in
      t.shards.(i) <- Some s;
      s

let key ~worker ~region = (worker lsl 32) lor (region land 0xFFFF_FFFF)
let key_worker k = k lsr 32
let key_region k = k land 0xFFFF_FFFF

let cell s k =
  match s.s_last_cell with
  | Some c when s.s_last_key = k -> c
  | _ ->
      let c =
        match Hashtbl.find_opt s.cells k with
        | Some c -> c
        | None ->
            let c = { cl_reads = 0; cl_writes = 0; cl_commits = 0; cl_aborts = 0 } in
            Hashtbl.add s.cells k c;
            c
      in
      s.s_last_key <- k;
      s.s_last_cell <- Some c;
      c

(* -- Engine-tap callbacks -------------------------------------------------- *)

let on_begin t ~txn ~worker ~rv:_ =
  let s = shard_of t txn in
  s.s_active <- true;
  s.s_txn <- txn;
  s.s_worker <- worker;
  s.s_begin <- t.clock ();
  s.s_touched <- []

let with_cur t txn f =
  let s = shard_of t txn in
  if s.s_active && s.s_txn = txn then f s

let on_touch t ~txn ~region =
  with_cur t txn (fun s -> s.s_touched <- region :: s.s_touched)

let on_read t ~txn ~region ~slot:_ ~version:_ =
  with_cur t txn (fun s ->
      let c = cell s (key ~worker:s.s_worker ~region) in
      c.cl_reads <- c.cl_reads + 1)

let on_write t ~txn ~region ~slot:_ =
  with_cur t txn (fun s ->
      let c = cell s (key ~worker:s.s_worker ~region) in
      c.cl_writes <- c.cl_writes + 1)

let rec bump_touched s worker bump = function
  | [] -> ()
  | region :: rest ->
      bump (cell s (key ~worker ~region));
      bump_touched s worker bump rest

let on_commit t ~txn ~stamp:_ =
  with_cur t txn (fun s ->
      bump_touched s s.s_worker (fun c -> c.cl_commits <- c.cl_commits + 1) s.s_touched;
      Histogram.observe s.commit_h (t.clock () - s.s_begin);
      s.s_active <- false)

let on_abort t ~txn =
  with_cur t txn (fun s ->
      bump_touched s s.s_worker (fun c -> c.cl_aborts <- c.cl_aborts + 1) s.s_touched;
      Histogram.observe s.abort_h (t.clock () - s.s_begin);
      s.s_active <- false)

let recorder t =
  {
    Engine.null_recorder with
    Engine.rec_begin = (fun ~txn ~worker ~rv -> on_begin t ~txn ~worker ~rv);
    rec_touch = (fun ~txn ~region -> on_touch t ~txn ~region);
    rec_read = (fun ~txn ~region ~slot ~version -> on_read t ~txn ~region ~slot ~version);
    rec_write = (fun ~txn ~region ~slot -> on_write t ~txn ~region ~slot);
    rec_commit = (fun ~txn ~stamp -> on_commit t ~txn ~stamp);
    rec_abort = (fun ~txn -> on_abort t ~txn);
  }

let attach t engine =
  if t.tap <> None then invalid_arg "Affinity.attach: already attached";
  t.tap <- Some (engine, Engine.add_tap engine (recorder t))

let detach t =
  match t.tap with
  | None -> ()
  | Some (engine, handle) ->
      Engine.remove_tap engine handle;
      t.tap <- None

(* -- Merged views ---------------------------------------------------------- *)

type cell_total = {
  ax_worker : int;
  ax_region : int;
  ax_reads : int;
  ax_writes : int;
  ax_commits : int;
  ax_aborts : int;
}

let cells t =
  let merged : (int, cell) Hashtbl.t = Hashtbl.create 64 in
  Array.iter
    (function
      | None -> ()
      | Some shard ->
          Hashtbl.iter
            (fun k (c : cell) ->
              let m =
                match Hashtbl.find_opt merged k with
                | Some m -> m
                | None ->
                    let m = { cl_reads = 0; cl_writes = 0; cl_commits = 0; cl_aborts = 0 } in
                    Hashtbl.add merged k m;
                    m
              in
              m.cl_reads <- m.cl_reads + c.cl_reads;
              m.cl_writes <- m.cl_writes + c.cl_writes;
              m.cl_commits <- m.cl_commits + c.cl_commits;
              m.cl_aborts <- m.cl_aborts + c.cl_aborts)
            shard.cells)
    t.shards;
  Hashtbl.fold
    (fun k (c : cell) acc ->
      {
        ax_worker = key_worker k;
        ax_region = key_region k;
        ax_reads = c.cl_reads;
        ax_writes = c.cl_writes;
        ax_commits = c.cl_commits;
        ax_aborts = c.cl_aborts;
      }
      :: acc)
    merged []
  |> List.sort (fun a b ->
         let c = compare a.ax_worker b.ax_worker in
         if c <> 0 then c else compare a.ax_region b.ax_region)

let merged_histogram select t =
  let out = Histogram.create () in
  Array.iter
    (function None -> () | Some shard -> Histogram.merge_into ~dst:out (select shard))
    t.shards;
  out

let commit_latency t = merged_histogram (fun s -> s.commit_h) t
let abort_latency t = merged_histogram (fun s -> s.abort_h) t

(* Per-region sums over workers — the quantities that reconcile exactly
   with [Region_stats] commit/abort totals. *)
let region_totals t =
  let table : (int, int * int) Hashtbl.t = Hashtbl.create 16 in
  List.iter
    (fun c ->
      let commits, aborts =
        Option.value ~default:(0, 0) (Hashtbl.find_opt table c.ax_region)
      in
      Hashtbl.replace table c.ax_region (commits + c.ax_commits, aborts + c.ax_aborts))
    (cells t);
  Hashtbl.fold (fun region (commits, aborts) acc -> (region, commits, aborts) :: acc) table []
  |> List.sort (fun (a, _, _) (b, _, _) -> compare a b)

let to_csv_rows ?(name_of_region = string_of_int) t =
  let header = [ "worker"; "region"; "partition"; "reads"; "writes"; "commits"; "aborts" ] in
  header
  :: List.map
       (fun c ->
         [
           string_of_int c.ax_worker;
           string_of_int c.ax_region;
           name_of_region c.ax_region;
           string_of_int c.ax_reads;
           string_of_int c.ax_writes;
           string_of_int c.ax_commits;
           string_of_int c.ax_aborts;
         ])
       (cells t)

let to_json ?(name_of_region = string_of_int) t =
  Json.canonical
    (Json.Obj
       [
         ("schema", Json.String "partstm.affinity/1");
         ( "cells",
           Json.List
             (List.map
                (fun c ->
                  Json.Obj
                    [
                      ("worker", Json.Int c.ax_worker);
                      ("region", Json.Int c.ax_region);
                      ("partition", Json.String (name_of_region c.ax_region));
                      ("reads", Json.Int c.ax_reads);
                      ("writes", Json.Int c.ax_writes);
                      ("commits", Json.Int c.ax_commits);
                      ("aborts", Json.Int c.ax_aborts);
                    ])
                (cells t)) );
         ("commit_latency", Histogram.to_json (commit_latency t));
         ("abort_latency", Histogram.to_json (abort_latency t));
       ])
