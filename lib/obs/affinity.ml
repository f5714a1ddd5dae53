(* Worker × partition access-affinity matrix (DESIGN.md §8.3): reads /
   writes / commits / aborts per (worker, region) cell, plus whole-attempt
   commit and abort latency histograms — the direct input for
   sharing-aware thread-and-data mapping (ROADMAP item 1) and the latency
   source for the SLO tracker.

   The cells cost the workers nothing extra: every worker already bumps
   its own cache-line-padded [Region_stats] stripe in each region it
   touches, so a cell is that stripe's counters now minus the same stripe
   at [attach] (frozen at [detach]).  All four columns are therefore exact
   once the worker domains have joined, and they count every [Txn.read] /
   [Txn.write] call exactly as the statistics do.

   The engine tap watches attempts only ([rec_begin] / [rec_commit] /
   [rec_abort], for the latency histograms), so the engine never calls it
   on a read or a write.  Sharded by descriptor id like [Tracer]: single
   writer per shard below the collision threshold, merged at read time. *)

open Partstm_util
open Partstm_stm

type shard = {
  commit_h : Histogram.t;
  abort_h : Histogram.t;
  mutable s_active : bool;
  mutable s_txn : int;
  mutable s_begin : int;
}

type cell_total = {
  ax_worker : int;
  ax_region : int;
  ax_reads : int;
  ax_writes : int;
  ax_commits : int;
  ax_aborts : int;
}

(* Per region id, every worker stripe as it stood at [attach]. *)
type baseline = (int * Region_stats.snapshot array) list

type window =
  | Live of Engine.t * int * baseline  (* engine, tap handle, stripes at attach *)
  | Closed of cell_total list  (* cells as they stood at [detach]; [] before attach *)

type t = {
  regions : unit -> Region.t list;
  shards : shard option array;
  mutable clock : unit -> int;
  mutable window : window;
}

let shard_count = 1024
let default_clock () = 0

let create regions =
  { regions; shards = Array.make shard_count None; clock = default_clock; window = Closed [] }

let set_clock t clock = t.clock <- clock
let clear_clock t = t.clock <- default_clock

let shard_of t txn =
  let i = txn mod shard_count in
  let i = if i < 0 then i + shard_count else i in
  match t.shards.(i) with
  | Some s -> s
  | None ->
      let s =
        {
          commit_h = Histogram.create ();
          abort_h = Histogram.create ();
          s_active = false;
          s_txn = -1;
          s_begin = 0;
        }
      in
      t.shards.(i) <- Some s;
      s

(* -- Engine-tap callbacks (attempts only) ----------------------------------- *)

let on_begin t ~txn =
  let s = shard_of t txn in
  s.s_active <- true;
  s.s_txn <- txn;
  s.s_begin <- t.clock ()

let on_end t ~txn select =
  let s = shard_of t txn in
  if s.s_active && s.s_txn = txn then begin
    Histogram.observe (select s) (t.clock () - s.s_begin);
    s.s_active <- false
  end

let recorder t =
  {
    Engine.null_recorder with
    Engine.rec_begin = (fun ~txn ~worker:_ ~rv:_ -> on_begin t ~txn);
    rec_commit =
      (fun ~txn ~stamp:_ ~reads:_ ~writes:_ ~region:_ -> on_end t ~txn (fun s -> s.commit_h));
    rec_abort = (fun ~txn ~reads:_ ~writes:_ ~region:_ -> on_end t ~txn (fun s -> s.abort_h));
  }

(* -- The matrix, from the per-worker stripes -------------------------------- *)

let stripes (region : Region.t) =
  Array.init (Region_stats.max_workers region.Region.stats) (fun worker ->
      Region_stats.worker_snapshot region.Region.stats worker)

let live_cells t baseline =
  List.concat_map
    (fun (region : Region.t) ->
      let base = List.assoc_opt region.Region.id baseline in
      Array.to_list (stripes region)
      |> List.mapi (fun worker current ->
             let d =
               match base with
               | Some base -> Region_stats.diff ~current ~previous:base.(worker)
               | None -> current
             in
             {
               ax_worker = worker;
               ax_region = region.Region.id;
               ax_reads = d.Region_stats.s_reads;
               ax_writes = d.Region_stats.s_writes;
               ax_commits = d.Region_stats.s_commits;
               ax_aborts = d.Region_stats.s_aborts;
             })
      |> List.filter (fun c -> c.ax_reads + c.ax_writes + c.ax_commits + c.ax_aborts <> 0))
    (t.regions ())
  |> List.sort (fun a b ->
         let c = compare a.ax_worker b.ax_worker in
         if c <> 0 then c else compare a.ax_region b.ax_region)

let cells t =
  match t.window with
  | Live (_, _, baseline) -> live_cells t baseline
  | Closed cells -> cells

let attach t engine =
  (match t.window with
  | Live _ -> invalid_arg "Affinity.attach: already attached"
  | Closed _ -> ());
  let baseline = List.map (fun (r : Region.t) -> (r.Region.id, stripes r)) (t.regions ()) in
  t.window <- Live (engine, Engine.add_tap engine (recorder t), baseline)

let detach t =
  match t.window with
  | Closed _ -> ()
  | Live (engine, handle, baseline) ->
      Engine.remove_tap engine handle;
      t.window <- Closed (live_cells t baseline)

(* -- Merged views ---------------------------------------------------------- *)

let merged_histogram select t =
  let out = Histogram.create () in
  Array.iter
    (function None -> () | Some shard -> Histogram.merge_into ~dst:out (select shard))
    t.shards;
  out

let commit_latency t = merged_histogram (fun s -> s.commit_h) t
let abort_latency t = merged_histogram (fun s -> s.abort_h) t

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
         ("schema", Json.String "partstm.affinity/2");
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
