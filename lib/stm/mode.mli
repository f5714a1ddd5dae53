(** Per-region concurrency-control configuration: read visibility,
    conflict-detection granularity, update strategy (write-back vs.
    write-through) and concurrency-control protocol — the per-partition
    knobs. *)

type read_visibility = Invisible | Visible

type update_strategy =
  | Write_back  (** buffer writes, publish at commit: cheap aborts *)
  | Write_through
      (** write in place under the lock, undo on abort: cheap commits *)

type t = {
  visibility : read_visibility;
  granularity_log2 : int;
      (** log2 of the region's orec count: 0 = whole-region conflict
          detection, larger = finer. *)
  update : update_strategy;
  protocol : Protocol.t;
}

val make :
  ?visibility:read_visibility ->
  ?granularity_log2:int ->
  ?update:update_strategy ->
  ?protocol:Protocol.t ->
  unit ->
  t

val default : t
(** Invisible reads, g10, write-back, single-version. *)

val granularity_min : int
val granularity_max : int

val with_protocol : Protocol.t -> t -> t
(** [with_protocol p t] is [t] running protocol [p], normalised to a valid
    composition: multi-version and commit-time locking own their read path
    and buffering, so they force invisible reads and write-back updates.
    The granularity is left as it is. *)

val validate : t -> unit
(** Raises [Invalid_argument] if the granularity or multi-version depth is
    out of range, or if a non-single-version protocol is combined with
    visible reads or write-through updates (the composition that
    {!with_protocol} normalises away). *)

val visibility_to_string : read_visibility -> string
val update_to_string : update_strategy -> string
val visibility_of_string : string -> (read_visibility, string) result
val update_of_string : string -> (update_strategy, string) result

val to_string : t -> string
(** Canonical fully-explicit form, e.g. ["invisible/g10/wb/sv"]. *)

val of_string : string -> (t, string) result
(** Inverse of {!to_string}; also accepts the abbreviated {!pp} rendering
    (omitted fields take the defaults), so any printed mode parses back. *)

val pp : Format.formatter -> t -> unit
val equal : t -> t -> bool
