(* A region is the STM-engine-level view of a data partition: its own lock
   table (with its own granularity), its own read-visibility policy, its own
   concurrency-control protocol, its own statistics, and the quiesce
   machinery that makes online reconfiguration safe (DESIGN.md §4, §10).

   Online reconfiguration safety comes from the engine-wide quiesce
   protocol ({!Engine.quiesce}): transactions register in-flight once at
   begin, on their worker's own slot; the tuner freezes the engine and
   waits for every slot to drain before replacing [config].  A transaction
   therefore observes one configuration per region for its whole lifetime
   (it caches [config] at first touch, and no swap can happen while it is
   in flight).  A replacement lock table is built before
   the freeze, so workers wait only for the swap, not for the allocation. *)

(* What a transaction caches at its first touch of the region (one
   pointer), replaced whole by [reconfigure], never mutated in place. *)
type config = {
  table : Lock_table.t;
  mode : Mode.t;  (* [mode.granularity_log2] is [table]'s *)
  mv_depth : int;  (* the [Multi_version] depth, 0 otherwise *)
  mv_epoch : int;
      (* multi-version configuration period: bumped by every protocol
         change, so tvar histories maintained under an earlier protocol are
         recognisably stale (Mv_history) *)
}

type t = {
  id : int;
  name : string;
  engine : Engine.t;
  mutable config : config;
  ctl_seq : Seqlock.t;  (* commit-time-lock sequence word *)
  stats : Region_stats.t;
  tvars : int Atomic.t;  (* number of tvars allocated in this region *)
}

let record_generation engine ~region ~version =
  match engine.Engine.recorder with
  | None -> ()
  | Some r -> r.Engine.rec_generation ~region ~version

let make_config ~table ~mv_epoch (mode : Mode.t) =
  let mv_depth = match mode.protocol with Protocol.Multi_version { depth } -> depth | _ -> 0 in
  { table; mode; mv_depth; mv_epoch }

let create engine ~name ?(mode = Mode.default) () =
  Mode.validate mode;
  let id = Engine.next_region_id engine in
  let base = Engine.now engine in
  record_generation engine ~region:id ~version:base;
  {
    id;
    name;
    engine;
    config =
      make_config mode ~mv_epoch:0
        ~table:
          (Lock_table.create ~padded:engine.Engine.padded ~clock_now:base
             ~granularity_log2:mode.Mode.granularity_log2);
    ctl_seq = Seqlock.create ~padded:engine.Engine.padded;
    stats = Region_stats.create ~max_workers:engine.Engine.max_workers;
    tvars = Atomic.make 0;
  }

let mode t = t.config.mode

let tvar_count t = Atomic.get t.tvars

(* Reconfigure the region under the engine-wide quiesce.  Caller contract:
   at most one reconfiguration at a time (the tuner is single-threaded) and
   the caller must not itself be inside a transaction.

   Protocol transitions need no per-tvar work: bumping [mv_epoch] makes
   every existing multi-version history stale (Mv_history rebuilds lazily
   on the next write under the new configuration), and the sequence lock is
   free by quiescence (no transaction is in flight, so no commit holds it).

   A granularity change allocates its table (up to 2 x 2^16 atomics) before
   the freeze; inside, the table takes the quiesce-time clock, restamped
   only if commits moved the clock since it was built. *)
let reconfigure t (new_mode : Mode.t) =
  Mode.validate new_mode;
  let replacement =
    if t.config.table.Lock_table.granularity_log2 = new_mode.Mode.granularity_log2 then None
    else
      let built_at = Engine.now t.engine in
      Some
        ( built_at,
          Lock_table.create ~padded:t.engine.Engine.padded ~clock_now:built_at
            ~granularity_log2:new_mode.Mode.granularity_log2 )
  in
  Engine.quiesce t.engine (fun () ->
      let old = t.config in
      let table =
        match replacement with
        | None -> old.table
        | Some (built_at, table) ->
            let base = Engine.now t.engine in
            record_generation t.engine ~region:t.id ~version:base;
            if base <> built_at then Lock_table.restamp table ~clock_now:base;
            table
      in
      let bump = if Protocol.equal old.mode.Mode.protocol new_mode.Mode.protocol then 0 else 1 in
      t.config <- make_config new_mode ~table ~mv_epoch:(old.mv_epoch + bump))

let pp ppf t = Fmt.pf ppf "region %d (%s) %a" t.id t.name Mode.pp (mode t)
