(** SLO tracker: named latency objectives ("commit_p99 < N") evaluated over
    windows of a cumulative [Util.Histogram] source, with error-budget burn
    accounting. Thresholds resolve at the histogram's power-of-two bucket
    granularity, rounding down — conservative, so violations are never
    under-reported. *)

open Partstm_util

type spec = {
  sp_name : string;  (** e.g. ["commit_p99"] *)
  sp_source : string;  (** e.g. ["commit"] — resolved to a histogram by the caller *)
  sp_quantile : float;  (** e.g. [99.0] *)
  sp_threshold : int;  (** clock units *)
}

val target : spec -> float
(** [sp_quantile / 100]: the required fraction of observations within the
    threshold. *)

val parse : string -> (spec, string) result
(** Parse ["commit_p99<50000"] (or ["commit_p99.9<50000"]): source name,
    quantile in (0, 100), non-negative integer threshold. *)

val spec_to_string : spec -> string

type status = {
  st_name : string;
  st_source : string;
  st_quantile : float;
  st_threshold : int;
  st_windows : int;  (** windows evaluated with at least one observation *)
  st_violations : int;
  st_window_count : int;  (** observations in the last window *)
  st_window_value : int;  (** the quantile's value in the last window *)
  st_window_compliance : float;  (** [1.0] when the window was empty *)
  st_window_ok : bool;  (** empty windows are vacuously compliant *)
  st_total_count : int;
  st_total_good : int;
  st_compliance : float;  (** cumulative *)
  st_budget_burn : float;
      (** fraction of the cumulative error budget consumed ([1.0] =
          exhausted; capped at [1e9]) *)
}

type objective
type t

val create : unit -> t

val add : t -> spec -> source:(unit -> Histogram.t) -> objective
(** Register an objective over a cumulative histogram source. The source is
    re-read (and copied) at each {!evaluate}; it must grow monotonically.
    Raises [Invalid_argument] if an objective with the same [sp_name] is
    already registered: the name is the objective's identity in every
    export. *)

val evaluate : t -> unit
(** Close one window per objective: diff the source against the previous
    snapshot, update window and cumulative statistics. Single-threaded
    (call from the service domain / fiber). *)

val statuses : t -> status list
(** Last evaluated state, in registration order. Pure read. *)

val ok : t -> bool
(** All objectives' last windows were compliant. *)

val to_json : t -> Json.t
(** Canonical (sorted-key) snapshot, schema ["partstm.slo/1"]. *)
