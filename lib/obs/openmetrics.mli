(** OpenMetrics / Prometheus text exposition format: renderer and a small
    validating parser. The data model is the lowered form — a family
    carries its kind and already-suffixed sample lines ([name_total] for
    counters, [name_bucket]/[name_count]/[name_sum] for histograms) — so
    [parse (render fs)] round-trips structurally. *)

type kind = Counter | Gauge | Histogram

type sample = {
  s_name : string;  (** full sample name, suffix included *)
  s_labels : (string * string) list;
  s_value : float;
}

type family = { f_name : string; f_kind : kind; f_help : string; f_samples : sample list }

val render : family list -> string
(** Exposition text, terminated by [# EOF]. Families render in the order
    given (callers sort for byte-stable artifacts); label values and help
    strings are escaped per the spec. *)

val parse : string -> (family list, string) result
(** Validating parse of {!render}'s output (and of well-formed subsets of
    the OpenMetrics format): requires a [# TYPE] before samples, rejects
    samples whose name is not the family name plus a kind-appropriate
    suffix, requires [le] on [_bucket] samples and the [# EOF] terminator. *)
