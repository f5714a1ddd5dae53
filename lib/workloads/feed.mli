(** Helenos-style social-feed service over the partitioned store
    (experiment R-Y1's application arm, DESIGN.md §11).

    Four partitions with deliberately different traffic shapes — profiles
    (read-mostly point reads), follow graph (read by post fan-out), ring
    timelines (read-dominated but invalidated by celebrity fan-out) and a
    small like-counter block (update-heavy, all transactions colliding on
    the global total) — so one run exercises the tuner's whole decision
    space: the acceptance check asserts that at least two partitions
    converge to {e different} modes/protocols (e.g. timelines → mv,
    counters → ctl), with the explain trace recorded in the report.

    Consistency probes double as the workload: timeline reads verify ring
    slots under the head are filled, and the trending scan checks the
    strong invariant [like_total = Σ like counters] — every like commits
    both increments atomically, so any consistent snapshot must balance. *)

open Partstm_util
open Partstm_core
open Partstm_harness

type config = {
  users : int;
  celebrities : int;  (** hot authors; everyone follows them *)
  followers_per_user : int;  (** fan-in for ordinary users *)
  timeline_len : int;  (** ring slots per user *)
  counters : int;  (** like counters (plus the global total tvar) *)
  theta : float;  (** Zipf skew for author/reader/like choice *)
  read_pct : int;  (** timeline reads *)
  post_pct : int;  (** posts with follower fan-out *)
  like_pct : int;  (** like: counter + global total *)
  trend_pct : int;  (** trending scan over every counter *)
  max_workers : int;
}

val default_config : config
val quick_config : config

val bench_sim_cycles : quick:bool -> int
(** Virtual-time budget for the R-Y1 sim arm.  Feed transactions are
    an order of magnitude heavier than YCSB point ops, so the budget is
    larger — the tuner needs full sampling periods per partition. *)

val bench_workers : int
(** Worker count for the R-Y1 sim arm: enough concurrency to build
    the contention signals the tuner keys on (the simulator timeslices,
    so extra workers cost nothing). *)

(** {1 Store and worker} (what {!run} drives; usable under any [Driver.run]) *)

type t

val setup : System.t -> strategy:Strategy.t -> config -> t
val worker : t -> Driver.ctx -> int

val check : t -> bool
(** No consistency violation was observed: timeline reads always saw
    filled slots under the head, and every trending snapshot balanced
    [like_total] against the counter sum. *)

(** {1 Orchestrated runs} *)

type partition_outcome = {
  po_name : string;
  po_initial : string;
  po_final : string;
  po_switches : int;
}

type explain_entry = {
  ex_tick : int;
  ex_partition : string;
  ex_from : string;
  ex_to : string;
  ex_triggered : string list;
}

type report = {
  r_backend : string;
  r_workers : int;
  r_seed : int;
  r_config : config;
  r_result : Driver.result;
  r_outcomes : partition_outcome list;
  r_explain : explain_entry list;  (** chronological tuner switch trail *)
  r_timeline_reads : int;
  r_posts : int;
  r_likes : int;
  r_trends : int;
  r_verified : bool;
}

val run :
  ?progress:(string -> unit) ->
  backend:[ `Sim of int | `Domains of float ] ->
  workers:int ->
  seed:int ->
  config ->
  report
(** One tuned run; deterministic on [`Sim]. *)

val distinct_final_modes : report -> int
(** Number of distinct final per-partition modes. *)

type verdict = [ `Passed | `Failed of string ]

val checks : report -> (string * verdict) list
(** [invariants] (timeline and counter-balance probes clean),
    [divergent_modes] (≥ 2 partitions ended in different modes, i.e. the
    tuner actually specialised the application), [explained] (every
    applied switch carries a non-empty trigger trail). *)

val to_table : report -> Table.t
val to_json : report -> Json.t
