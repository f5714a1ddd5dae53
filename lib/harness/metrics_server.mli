(** Minimal OpenMetrics scrape endpoint: a non-blocking TCP listener on
    127.0.0.1 whose pending connections are drained by {!poll}, called from
    the driver's shared service domain (there is no dedicated server
    thread). Each [GET /metrics] (or [GET /]) receives the [content]
    closure's current value as
    [application/openmetrics-text]; other paths get 404. *)

type t

val start : ?port:int -> content:(unit -> string) -> unit -> t
(** Bind and listen on [127.0.0.1:port] (default [0] = ephemeral; read the
    actual port back with {!port}). Raises [Invalid_argument] for a port
    outside [0..65535] and [Unix.Unix_error] if the bind fails. *)

val port : t -> int

val poll : t -> unit
(** Accept and answer every connection currently pending, then return
    without blocking on the listener. Serving one accepted client waits at
    most 200ms for its request, and the reply is dropped once a write makes
    no progress for 200ms. SIGPIPE is ignored while replying (the previous
    disposition is restored), so a client that hangs up early only ends its
    own reply. Single-threaded. *)

val stop : t -> unit
(** Close the listener. Idempotent. *)
