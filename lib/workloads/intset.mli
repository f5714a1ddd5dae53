(** Integer-set microbenchmark over any of the four transactional set
    structures. *)

open Partstm_core
open Partstm_harness

type structure_kind = Linked_list | Skip_list | Rb_tree | Hash_set

val structure_to_string : structure_kind -> string
val default_partition_name : structure_kind -> string

type config = {
  kind : structure_kind;
  initial_size : int;
  key_range : int;
  update_percent : int;
}

val default_config : structure_kind -> config

val contended_list : config
(** The bench's contended list ("ll-u60"): 64 of 128 keys, 60% updates. *)

type t

val setup : System.t -> strategy:Strategy.t -> config -> t
(** Registers the partition and populates the structure. *)

val worker : t -> Driver.ctx -> int
val check : t -> bool
val elements : t -> int list
val partition : t -> Partition.t
