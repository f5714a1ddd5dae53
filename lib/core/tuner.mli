(** Runtime per-partition tuner. The caller schedules {!step} once per
    sampling period from a single thread (harness domain or simulator
    fiber). *)

open Partstm_stm

type t

type event = {
  ev_tick : int;
  ev_time : int;
      (** run-clock time of the switch: virtual cycles (Simulated) or
          nanoseconds since start (Domains) under [Driver.run]; [-1] when
          no clock is installed ({!set_clock}) *)
  ev_partition : string;
  ev_from : Mode.t;
  ev_to : Mode.t;
  ev_why : Tuning_policy.why;
      (** full audit trail for the switch, including the period's abort
          rate and update ratio *)
}

val create : ?cooldown:int -> ?max_trace:int -> Registry.t -> t
(** The tuner decides with {!Tuning_policy.explain}. [cooldown] is
    the number of periods a freshly switched partition is left alone.
    [max_trace] (default 1024) bounds the in-memory decision log: once
    full, each new event evicts the oldest in O(1) ({!switches} keeps the
    exact total, {!dropped_events} counts evictions). *)

val on_event : t -> (event -> unit) -> unit
(** Subscribe to decision events: the listener is called (from the tuner's
    thread/fiber) on each applied switch, after the region has been
    reconfigured. The driver bridges decisions into a tracer's timeline
    this way. *)

val set_clock : t -> (unit -> int) -> unit
(** Timestamp source for [ev_time]; [Driver.run] installs its run
    clock for the duration of a run. *)

val clear_clock : t -> unit

val step : t -> unit
(** Sample all partitions, decide, and apply switches (quiescing each
    affected region). Each applied switch also bumps the owning partition's
    [mode_switches] statistic. Each partition's multi-version block
    ({!Tuning_policy.verdict}'s [mv_blocked]) is stored from one evaluated
    period to the next and passed back to the policy. Single-threaded. *)

val ticks : t -> int

val switches : t -> int
(** Total switches applied (never truncated, unlike {!trace}). *)

val dropped_events : t -> int
(** Events evicted from the bounded trace so far. *)

val trace : t -> event list
(** Chronological switch log (the data behind Table R-T3 and the telemetry
    exports' decisions); holds the most recent [max_trace] events. *)

type last = {
  ld_partition : string;
  ld_tick : int;
  ld_decision : Tuning_policy.decision;
  ld_why : Tuning_policy.why;
}

val last_decisions : t -> last list
(** Latest evaluated decision per partition, sorted by partition name —
    includes [Keep] outcomes (unlike {!trace}, which only logs applied
    switches). Partitions never yet evaluated (or skipped by cooldown on
    every tick so far) are omitted. *)

val pp_event : Format.formatter -> event -> unit
(** One line per switch, prefixed with [t=<ev_time>] when stamped. *)
