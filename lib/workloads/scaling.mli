(** Hardware scaling measurement for the Domains backend (experiment D1):
    committed transactions per wall-clock second on the low-contention bank
    workload, swept over worker counts, padded vs packed memory layout.
    Driven by [bench/exp_d1.ml], which writes BENCH_D1.json. *)

type config = {
  workers : int list;  (** sweep, ascending; must include 1 for ratios *)
  seconds : float;  (** measured window per run *)
  trials : int;  (** best-of-N *)
  seed : int;
}

val default_config : config
(** workers [1; 2; 4; 8], 1 s runs, best of 3. *)

val quick_config : config
(** CI smoke: workers [1; 2], 0.3 s runs, best of 2. *)

type sample = {
  s_workers : int;
  s_padded : bool;
  s_commits_per_sec : float;  (** headline metric *)
  s_ops_per_sec : float;
  s_commits : int;
  s_aborts : int;
  s_elapsed : float;
}

type report = {
  r_config : config;
  r_recommended_domains : int;  (** [Domain.recommended_domain_count ()] *)
  r_parallel_capable : bool;  (** host can run 4 workers in parallel *)
  r_best : sample list;  (** one per (workers, arm), best commits/sec *)
}

val run_once :
  padded:bool -> workers:int -> seconds:float -> seed:int -> sample
(** One timed bank run on real domains; fails if the bank invariant breaks. *)

val run : ?progress:(string -> unit) -> config -> report
(** Full sweep: one discarded warm-up, then arms interleaved across trials,
    best-of-N per arm. [progress] is called with a short line before each
    run. *)

val find : report -> workers:int -> padded:bool -> sample option

val speedup : report -> workers:int -> padded:bool -> float option
(** Throughput ratio over the 1-worker run of the same arm. *)

val padded_gain_pct : report -> workers:int -> float option
(** Padded-over-boxed throughput advantage, in percent. *)

type verdict = [ `Passed | `Failed of string | `Skipped of string ]

val check_scaling : report -> verdict
(** Monotonic commits/sec from 1 to 4 workers with >= 2.5x speed-up at 4.
    [`Skipped] (with the reason) on hosts that cannot run 4 workers in
    parallel — the speed-up is then physically unobservable. *)

val check_padding : report -> verdict
(** Padded arm at least matches the packed arm at the top worker count
    (2% noise floor); skipped on single-core hosts. *)

val to_json : report -> Partstm_util.Json.t
(** The BENCH_D1.json document: host info, config, per-arm points with
    speed-up ratios, padded-gain per worker count, and both check verdicts. *)

val to_table : report -> Partstm_util.Table.t
