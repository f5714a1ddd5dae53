(** Schedule exploration over {!Scenario} workloads: pluggable scheduling
    strategies, fault injection, oracle + invariant checking per run, and
    ddmin shrinking of failing schedules to a minimal replayable
    reproducer. *)

type strategy =
  | Random_walk  (** uniform choice among runnable fibers *)
  | Pct of { depth : int }
      (** probabilistic concurrency testing: random priorities plus
          [depth - 1] priority-change points *)
  | Dfs of { max_preemptions : int }
      (** systematic enumeration, at most [max_preemptions] switches away
          from a non-preemptive baseline, deepest-first *)

val strategy_name : strategy -> string

type verdict =
  | Clean of Oracle.report
  | Bad of string list  (** rendered anomalies and invariant violations *)
  | Abandoned  (** hit the step limit — divergent schedule, not a failure *)

type failure = {
  f_scenario : string;
  f_strategy : strategy;
  f_errors : string list;
  f_schedule : Schedule.t;
  f_minimized : Schedule.t;
  f_schedules_run : int;
}

type outcome =
  | Passed of { schedules : int; abandoned : int; committed : int; aborted : int }
  | Failed of failure

val run :
  ?seed:int -> ?budget:int -> ?max_yields:int -> ?kills:int -> strategy -> Scenario.t -> outcome
(** Explore up to [budget] schedules. [kills] > 0 draws that many fault
    injection points per schedule (randomized strategies only). *)

val replay : Scenario.t -> ?max_yields:int -> Schedule.t -> verdict
(** Re-execute one recorded schedule exactly. *)

val minimize : ?max_yields:int -> Scenario.t -> Schedule.t -> Schedule.t
(** Delta-debug a failing schedule (kills first, then ddmin on the
    decision list) to a smaller schedule that still fails. *)

val pp_failure : Format.formatter -> failure -> unit
val pp_outcome : Format.formatter -> outcome -> unit
