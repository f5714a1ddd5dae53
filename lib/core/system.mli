(** Facade: one partitioned-STM system = engine + partition registry.

    Typical use:
    {[
      let system = System.create () in
      let accounts = System.partition system "accounts" in
      let a = System.tvar accounts 100 and b = System.tvar accounts 0 in
      let txn = System.descriptor system ~worker_id:0 in
      System.atomically txn (fun t ->
        System.write t a (System.read t a - 10);
        System.write t b (System.read t b + 10))
    ]} *)

open Partstm_stm

type t

val create :
  ?max_workers:int ->
  ?contention_manager:Cm.t ->
  ?max_attempts:int ->
  ?padded:bool ->
  unit ->
  t
(** [padded] (default [true]) cache-line-pads the hot shared words; see
    {!Partstm_stm.Engine.create}. *)

val engine : t -> Engine.t
val registry : t -> Registry.t

val partition :
  t -> ?site:string -> ?mode:Mode.t -> ?tunable:bool -> string -> Partition.t
(** Create and register a partition. *)

val descriptor : t -> worker_id:int -> Txn.t
(** One per worker; reused across transactions. *)

val domain_descriptor : t -> Txn.t
(** The calling domain's pooled descriptor for this system: created on the
    domain's first call, returned unchanged afterwards, never shared across
    domains. Pooled worker ids are drawn from the top of the worker-id
    space ([max_workers - 1] downward) so they cannot collide with
    explicitly managed ids (allocated from 0 up). Raises
    [Invalid_argument] when the id space is exhausted. *)

val atomically : Txn.t -> (Txn.t -> 'a) -> 'a
val read : Txn.t -> 'a Tvar.t -> 'a
val write : Txn.t -> 'a Tvar.t -> 'a -> unit
val modify : Txn.t -> 'a Tvar.t -> ('a -> 'a) -> unit

val retry : Txn.t -> 'a
(** Blocking retry; see {!Partstm_stm.Txn.retry}. *)

val set_retry_hook : Txn.t -> (unit -> unit) -> unit
(** Callback after every rollback in the retry loop; see
    {!Partstm_stm.Txn.set_retry_hook}. *)

val tvar : Partition.t -> 'a -> 'a Tvar.t

val tuner : ?cooldown:int -> ?max_trace:int -> t -> Tuner.t
