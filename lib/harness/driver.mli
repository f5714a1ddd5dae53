(** Workload driver with interchangeable backends: real domains (wall-clock)
    or the deterministic virtual-time simulator (DESIGN.md §6). *)

open Partstm_util
open Partstm_core
open Partstm_simcore

type ctx = {
  worker_id : int;
  rng : Rng.t;  (** worker-private deterministic stream *)
  should_stop : unit -> bool;
  progress : unit -> float;  (** fraction of the run elapsed, in [0, 1] *)
  attempt_tick : unit -> unit;
      (** advance the deadline countdown without completing an operation;
          workloads wire it as the descriptor's retry hook
          ({!Partstm_core.System.set_retry_hook}) so repeated aborts inside
          one transaction still observe the end of the measured window *)
}

type mode =
  | Domains of { seconds : float }
  | Simulated of { cycles : int; model : Cost_model.t; jitter : int; sim_seed : int }

val default_sim : ?cycles:int -> ?model:Cost_model.t -> ?jitter:int -> unit -> mode
(** The simulator's own seed is fixed at [0xBEEF]. *)

val mode_to_string : mode -> string

type result = {
  workers : int;
  elapsed : float;  (** seconds (Domains) or virtual cycles (Simulated) *)
  total_ops : int;
  per_worker_ops : int array;
  throughput : float;
      (** ops/second (Domains) or ops per million cycles (Simulated) *)
}

val run :
  ?tuner:Tuner.t ->
  ?tuner_steps:int ->
  ?tracer:Partstm_obs.Tracer.t ->
  ?metrics:Metrics_plane.t ->
  ?metrics_steps:int ->
  ?seed:int ->
  mode:mode ->
  workers:int ->
  (ctx -> int) ->
  result
(** Run one worker function per worker until the duration elapses; the
    worker returns its operation count.

    In-run service actions are scheduled evenly across the run, never past
    its deadline: [tuner]'s step [tuner_steps] times (default 40) and
    [metrics]' sample [metrics_steps] times (default 0). A step count of 0
    schedules nothing; a negative one raises [Invalid_argument], as does
    [workers <= 0]. On the Domains backend all actions share ONE extra
    service domain (so a run costs [workers + 1] domains at most,
    [workers] when nothing is scheduled); keep [workers] at or below
    [Domain.recommended_domain_count ()] — the driver warns (once per
    process) when the total exceeds it. On the Simulated backend each
    action gets its own fiber after the workers' — tuner, then metrics —
    and the tuner's fiber is always present, idle when nothing is
    scheduled on it, preserving historical schedules. On the Simulated
    backend, [elapsed]/[throughput] use the actual makespan, not the
    nominal cycle budget.

    [tuner], [tracer] and [metrics] share one run clock for the run:
    virtual cycles on Simulated, nanoseconds since start on Domains. It
    stamps the tuner's decisions ({!Tuner.event}), the tracer's spans and
    the plane's latencies and series rows; [tuner]'s decisions are also
    bridged into the tracer's timeline. The metrics plane always takes one
    final {!Metrics_plane.sample} after the run, stamped with the run's
    end, so its telemetry series ({!Metrics_plane.series}) covers the
    whole run; with the default [metrics_steps = 0] it adds no fiber or
    action at all, so a metrics-on Simulated run replays the metrics-off
    schedule bit-for-bit (the plane charges no virtual time). A plane
    that serves only the telemetry series need not be attached. If the
    plane's scrape endpoint was started ({!Metrics_plane.serve}) before a
    Domains run, the service loop also drains it (sleeps capped at
    ~50ms). Attaching the tracer and the plane to the engine
    ({!Partstm_obs.Tracer.attach}, {!Metrics_plane.attach}) is the
    caller's job. *)
