(** The workload catalogue and the measured-run recipe.

    Every experiment arm — a CLI run, a bench point, the YCSB, feed,
    scaling and protocol drivers — is built by {!prepare}, so the arms of
    one figure differ only in what they are given. *)

open Partstm_core
open Partstm_harness

type t =
  | Workload : {
      name : string;
      setup : System.t -> strategy:Strategy.t -> 's;
      worker : 's -> Driver.ctx -> int;
      check : 's -> total_ops:int -> bool;
          (** the workload's invariants after a run of [total_ops]
              operations *)
    }
      -> t

val all : t list
(** The catalogue, in the order [partstm list] prints it; names are
    unique. *)

val name : t -> string
val find : string -> t option

val get : string -> t
(** Raises [Invalid_argument] for a name not in {!all}. *)

val intset : string -> Intset.config -> t
(** An integer-set entry over a non-default configuration. *)

val strategies : (string * Strategy.t) list
(** The strategies the CLI accepts, by name. *)

type 's prepared = { system : System.t; state : 's; tuner : Tuner.t option }

val prepare :
  ?contention_manager:Partstm_stm.Cm.t ->
  ?padded:bool ->
  ?cooldown:int ->
  workers:int ->
  strategy:Strategy.t ->
  (System.t -> strategy:Strategy.t -> 's) ->
  's prepared
(** The measured-run recipe: create a system with room for [workers] plus
    8 more worker ids (pooled descriptors and set-up helpers), run the
    set-up under [strategy], reset every partition's statistics so the
    run counts only its own traffic, and create a tuner (with [cooldown])
    if and only if [Strategy.tunable strategy]. *)
