(** Phased workload (experiment R-F4): one partition alternating between
    read-mostly and update-heavy phases. *)

open Partstm_core
open Partstm_harness

type config = {
  tree_size : int;
  tree_range : int;
  phases : int;
  read_phase_update_percent : int;
  write_phase_update_percent : int;
  buckets : int;
}

val default_config : config

type t

val setup : System.t -> strategy:Strategy.t -> config -> t
val worker : t -> Driver.ctx -> int

val phase_of_progress : config -> float -> int
val update_percent_of_phase : config -> int -> int

val time_series : t -> int array
(** Completed operations per progress bucket (summed over workers). *)

val check : t -> bool
val partition : t -> Partition.t
