(* Facade: one STM system = engine + partition registry (+ optional tuner).
   This is the API the examples and workloads program against. *)

open Partstm_stm

type t = {
  engine : Engine.t;
  registry : Registry.t;
  uid : int;  (* keys the per-domain descriptor pool across systems *)
  pool_next : int Atomic.t;  (* next pooled worker id, counting DOWN *)
}

(* Process-wide system identity for the Domain.DLS pool table: tests create
   many systems per process, and a domain's cached descriptor must never
   leak from one system to another. *)
let uid_counter = Atomic.make 0

let create ?max_workers ?contention_manager ?max_attempts ?padded () =
  let engine = Engine.create ?max_workers ?contention_manager ?max_attempts ?padded () in
  {
    engine;
    registry = Registry.create engine;
    uid = Atomic.fetch_and_add uid_counter 1;
    pool_next = Atomic.make (engine.Engine.max_workers - 1);
  }

let engine t = t.engine
let registry t = t.registry

let partition t ?site ?mode ?tunable name = Registry.make_partition t.registry ~name ?site ?mode ?tunable ()

let descriptor t ~worker_id = Txn.create t.engine ~worker_id

(* Per-domain descriptor pool: the first call on a domain creates that
   domain's descriptor, every later call returns the same one, so the
   descriptor (and its read/write sets) never migrates across domains and
   steady-state transactions allocate nothing here.  Pool worker ids are
   drawn from the TOP of the worker-id space (max_workers - 1 downward) so
   they can never collide with explicitly managed ids, which all code
   allocates from 0 upward — a collision would put two domains on one
   statistics stripe and silently lose counter updates. *)
let pool_key : (int, Txn.t) Hashtbl.t Domain.DLS.key =
  Domain.DLS.new_key (fun () -> Hashtbl.create 4)

let domain_descriptor t =
  let pool = Domain.DLS.get pool_key in
  match Hashtbl.find_opt pool t.uid with
  | Some txn -> txn
  | None ->
      let worker_id = Atomic.fetch_and_add t.pool_next (-1) in
      if worker_id < 0 then
        invalid_arg
          "System.domain_descriptor: worker-id pool exhausted (create the system with a larger \
           ~max_workers)";
      let txn = Txn.create t.engine ~worker_id in
      Hashtbl.add pool t.uid txn;
      txn

let atomically = Txn.atomically
let read = Txn.read
let write = Txn.write
let modify = Txn.modify
let retry = Txn.retry
let set_retry_hook = Txn.set_retry_hook
let tvar = Partition.tvar

let tuner ?cooldown ?max_trace t = Tuner.create ?cooldown ?max_trace t.registry
