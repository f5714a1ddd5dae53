(* Runtime tuner: periodically samples every partition's statistics, asks
   the policy for a decision, and applies mode switches through the region
   quiesce protocol.

   Scheduling is owned by the caller (a harness domain or a simulator
   fiber) which invokes [step] once per sampling period; the tuner itself is
   single-threaded — a requirement of [Region.reconfigure]. *)

open Partstm_util
open Partstm_stm

type entry = {
  e_partition : Partition.t;
  mutable e_prev : Region_stats.snapshot;
  mutable e_cooldown : int;
  mutable e_last : (int * Tuning_policy.decision * Tuning_policy.why) option;
      (* last evaluated (tick, decision, why) — Keep or Switch, for [partstm top] *)
  mutable e_mv_blocked : bool;
      (* the policy's multi-version block, kept from one evaluated period
         to the next *)
}

type event = {
  ev_tick : int;
  ev_time : int;
  ev_partition : string;
  ev_from : Mode.t;
  ev_to : Mode.t;
  ev_why : Tuning_policy.why;
}

type t = {
  registry : Registry.t;
  cooldown_periods : int;
  trace : event Ring.t;  (* the newest [max_trace] applied switches *)
  mutable entries : entry list;
  mutable ticks : int;
  mutable switches : int;
  mutable clock : unit -> int;
  mutable listeners : (event -> unit) list;
}

let no_clock () = -1

let create ?(cooldown = 2) ?(max_trace = 1024) registry =
  if max_trace < 1 then invalid_arg "Tuner.create: max_trace";
  {
    registry;
    cooldown_periods = cooldown;
    trace = Ring.create ~capacity:max_trace;
    entries = [];
    ticks = 0;
    switches = 0;
    clock = no_clock;
    listeners = [];
  }

let on_event t listener = t.listeners <- listener :: t.listeners
let set_clock t clock = t.clock <- clock
let clear_clock t = t.clock <- no_clock

let record_event t event =
  Ring.push t.trace event;
  List.iter (fun listener -> listener event) t.listeners

let find_entry t partition =
  List.find_opt (fun e -> e.e_partition == partition) t.entries

let sync_entries t =
  List.iter
    (fun partition ->
      match find_entry t partition with
      | Some _ -> ()
      | None ->
          t.entries <-
            {
              e_partition = partition;
              e_prev = Partition.snapshot partition;
              e_cooldown = 0;
              e_last = None;
              e_mv_blocked = false;
            }
            :: t.entries)
    (Registry.partitions t.registry)

let step t =
  t.ticks <- t.ticks + 1;
  sync_entries t;
  List.iter
    (fun entry ->
      let partition = entry.e_partition in
      let current_snapshot = Partition.snapshot partition in
      let delta = Region_stats.diff ~current:current_snapshot ~previous:entry.e_prev in
      entry.e_prev <- current_snapshot;
      if entry.e_cooldown > 0 then entry.e_cooldown <- entry.e_cooldown - 1
      else if Partition.tunable partition then begin
        let current_mode = Partition.mode partition in
        let { Tuning_policy.decision; mv_blocked; why } =
          Tuning_policy.explain
            {
              Tuning_policy.delta;
              current = current_mode;
              tvars = Partition.tvar_count partition;
              mv_blocked = entry.e_mv_blocked;
            }
        in
        entry.e_last <- Some (t.ticks, decision, why);
        entry.e_mv_blocked <- mv_blocked;
        match decision with
        | Tuning_policy.Keep -> ()
        | Tuning_policy.Switch new_mode ->
            Partition.set_mode partition new_mode;
            Region_stats.record_mode_switch (Partition.region partition).Region.stats;
            entry.e_cooldown <- t.cooldown_periods;
            t.switches <- t.switches + 1;
            record_event t
              {
                ev_tick = t.ticks;
                ev_time = t.clock ();
                ev_partition = Partition.name partition;
                ev_from = current_mode;
                ev_to = new_mode;
                ev_why = why;
              }
      end)
    t.entries

let ticks t = t.ticks
let switches t = t.switches
let dropped_events t = Ring.dropped t.trace
let trace t = Ring.to_list t.trace

type last = {
  ld_partition : string;
  ld_tick : int;
  ld_decision : Tuning_policy.decision;
  ld_why : Tuning_policy.why;
}

(* Latest evaluated decision per partition (Keep included, unlike [trace]
   which only logs applied switches) — the data behind [partstm top]'s
   "why" pane.  Partitions still in cooldown or never yet evaluated are
   omitted. *)
let last_decisions t =
  List.filter_map
    (fun entry ->
      match entry.e_last with
      | None -> None
      | Some (tick, decision, why) ->
          Some
            {
              ld_partition = Partition.name entry.e_partition;
              ld_tick = tick;
              ld_decision = decision;
              ld_why = why;
            })
    t.entries
  |> List.sort (fun a b -> compare a.ld_partition b.ld_partition)

let pp_event ppf ev =
  if ev.ev_time >= 0 then Fmt.pf ppf "t=%-10d " ev.ev_time;
  Fmt.pf ppf "tick %3d  %-16s %a -> %a  (abort=%.2f update=%.2f)" ev.ev_tick ev.ev_partition
    Mode.pp ev.ev_from Mode.pp ev.ev_to ev.ev_why.Tuning_policy.w_abort_rate
    ev.ev_why.Tuning_policy.w_update_ratio
