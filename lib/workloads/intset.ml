(* Integer-set microbenchmark (the standard STM workload): one data
   structure, a mix of [mem] and balanced [add]/[remove] operations over a
   fixed key range.  The structure is kept near half-full so add and remove
   succeed with similar probability. *)

open Partstm_util
open Partstm_stm
open Partstm_core
open Partstm_harness
module Structures = Partstm_structures

type structure_kind = Linked_list | Skip_list | Rb_tree | Hash_set

let structure_to_string = function
  | Linked_list -> "ll"
  | Skip_list -> "sl"
  | Rb_tree -> "rb"
  | Hash_set -> "hs"

let default_partition_name kind = "intset-" ^ structure_to_string kind

type config = {
  kind : structure_kind;
  initial_size : int;
  key_range : int;
  update_percent : int;  (* percentage of update (add/remove) operations *)
}

let default_config kind =
  { kind; initial_size = 256; key_range = 512; update_percent = 20 }

let contended_list =
  { kind = Linked_list; initial_size = 64; key_range = 128; update_percent = 60 }

(* Uniform view over the four set implementations. *)
type set_ops = {
  set_mem : Txn.t -> int -> bool;
  set_add : Txn.t -> int -> bool;
  set_remove : Txn.t -> int -> bool;
  set_check : unit -> bool;
  set_elements : unit -> int list;
}

type t = { system : System.t; partition : Partition.t; config : config; ops : set_ops }

let make_ops partition = function
  | Linked_list ->
      let s = Structures.Tlist.make partition in
      {
        set_mem = (fun txn k -> Structures.Tlist.mem txn s k);
        set_add = (fun txn k -> Structures.Tlist.add txn s k);
        set_remove = (fun txn k -> Structures.Tlist.remove txn s k);
        set_check = (fun () -> Structures.Tlist.check s);
        set_elements = (fun () -> Structures.Tlist.peek_to_list s);
      }
  | Skip_list ->
      let s = Structures.Tskiplist.make partition in
      {
        set_mem = (fun txn k -> Structures.Tskiplist.mem txn s k);
        set_add = (fun txn k -> Structures.Tskiplist.add txn s k);
        set_remove = (fun txn k -> Structures.Tskiplist.remove txn s k);
        set_check = (fun () -> Structures.Tskiplist.check s);
        set_elements = (fun () -> Structures.Tskiplist.peek_level s 0);
      }
  | Rb_tree ->
      let s = Structures.Trbtree.make partition in
      {
        set_mem = (fun txn k -> Structures.Trbtree.mem txn s k);
        set_add = (fun txn k -> Structures.Trbtree.add txn s k 0);
        set_remove = (fun txn k -> Structures.Trbtree.remove txn s k);
        set_check = (fun () -> Structures.Trbtree.check_ok s);
        set_elements = (fun () -> List.map fst (Structures.Trbtree.peek_to_list s));
      }
  | Hash_set ->
      let s = Structures.Thashset.make partition ~buckets:256 in
      {
        set_mem = (fun txn k -> Structures.Thashset.mem txn s k);
        set_add = (fun txn k -> Structures.Thashset.add txn s k);
        set_remove = (fun txn k -> Structures.Thashset.remove txn s k);
        set_check = (fun () -> Structures.Thashset.check s);
        set_elements = (fun () -> Structures.Thashset.peek_elements s);
      }

let populate system ops config =
  let txn = System.descriptor system ~worker_id:0 in
  let rng = Rng.make 0xD15EA5E in
  let inserted = ref 0 in
  while !inserted < config.initial_size do
    let key = Rng.int rng config.key_range in
    if Txn.atomically txn (fun t -> ops.set_add t key) then incr inserted
  done

let setup system ~strategy config =
  let name = default_partition_name config.kind in
  let partition =
    match Alloc.partitions_for system ~strategy [ (name, name ^ ".alloc") ] with
    | [ p ] -> p
    | _ -> assert false
  in
  let ops = make_ops partition config.kind in
  populate system ops config;
  { system; partition; config; ops }

let worker t (ctx : Driver.ctx) =
  let config = t.config in
  let txn = System.descriptor t.system ~worker_id:ctx.Driver.worker_id in
  System.set_retry_hook txn ctx.Driver.attempt_tick;
  let operations = ref 0 in
  while not (ctx.Driver.should_stop ()) do
    let key = Rng.int ctx.Driver.rng config.key_range in
    if Rng.chance ctx.Driver.rng ~percent:config.update_percent then
      if Rng.bool ctx.Driver.rng then ignore (Txn.atomically txn (fun t' -> t.ops.set_add t' key))
      else ignore (Txn.atomically txn (fun t' -> t.ops.set_remove t' key))
    else ignore (Txn.atomically txn (fun t' -> t.ops.set_mem t' key));
    incr operations
  done;
  !operations

let check t = t.ops.set_check ()
let elements t = t.ops.set_elements ()
let partition t = t.partition
