(* Phased workload (experiment R-F4): the access pattern of one partition
   flips between a read-mostly phase and an update-heavy phase several times
   during the run.  A static configuration is right in at most half the
   phases; the runtime tuner re-tunes after each flip.

   Workers also bin their completed operations by run progress so the bench
   can plot a throughput time-series. *)

open Partstm_util
open Partstm_stm
open Partstm_core
open Partstm_harness
module Structures = Partstm_structures

type config = {
  tree_size : int;
  tree_range : int;
  phases : int;  (* number of alternating phases over the run *)
  read_phase_update_percent : int;
  write_phase_update_percent : int;
  buckets : int;  (* time-series resolution *)
}

let default_config =
  {
    tree_size = 1024;
    tree_range = 2048;
    phases = 4;
    read_phase_update_percent = 2;
    write_phase_update_percent = 90;
    buckets = 40;
  }

type t = {
  system : System.t;
  config : config;
  partition : Partition.t;
  tree : int Structures.Trbtree.t;
  op_buckets : int array array;  (* worker -> progress bucket -> ops *)
}

let setup system ~strategy config =
  let name = "phased-tree" in
  let partition =
    match Alloc.partitions_for system ~strategy [ (name, "phased.rb.anchor") ] with
    | [ p ] -> p
    | _ -> assert false
  in
  let tree = Structures.Trbtree.make partition in
  let txn = System.descriptor system ~worker_id:0 in
  let rng = Rng.make 0xFA5E in
  let count = ref 0 in
  while !count < config.tree_size do
    let key = Rng.int rng config.tree_range in
    if Txn.atomically txn (fun t' -> Structures.Trbtree.add t' tree key key) then incr count
  done;
  {
    system;
    config;
    partition;
    tree;
    op_buckets =
      (* One row per worker id the system hands out. *)
      Array.make_matrix (System.engine system).Engine.max_workers config.buckets 0;
  }

let phase_of_progress config progress =
  min (config.phases - 1) (int_of_float (progress *. float_of_int config.phases))

let update_percent_of_phase config phase =
  if phase mod 2 = 0 then config.read_phase_update_percent
  else config.write_phase_update_percent

let worker t (ctx : Driver.ctx) =
  let config = t.config in
  let txn = System.descriptor t.system ~worker_id:ctx.Driver.worker_id in
  System.set_retry_hook txn ctx.Driver.attempt_tick;
  let rng = ctx.Driver.rng in
  let buckets = t.op_buckets.(ctx.Driver.worker_id) in
  let operations = ref 0 in
  while not (ctx.Driver.should_stop ()) do
    let progress = ctx.Driver.progress () in
    let update_percent = update_percent_of_phase config (phase_of_progress config progress) in
    let key = Rng.int rng config.tree_range in
    if Rng.chance rng ~percent:update_percent then
      ignore
        (Txn.atomically txn (fun t' ->
             if Rng.bool rng then Structures.Trbtree.add t' t.tree key key
             else Structures.Trbtree.remove t' t.tree key))
    else ignore (Txn.atomically txn (fun t' -> Structures.Trbtree.mem t' t.tree key));
    incr operations;
    let bucket = min (config.buckets - 1) (int_of_float (progress *. float_of_int config.buckets)) in
    buckets.(bucket) <- buckets.(bucket) + 1
  done;
  !operations

(* Total operations per progress bucket, across workers. *)
let time_series t =
  let config = t.config in
  Array.init config.buckets (fun b ->
      Array.fold_left (fun acc per_worker -> acc + per_worker.(b)) 0 t.op_buckets)

let check t = Structures.Trbtree.check_ok t.tree
let partition t = t.partition
