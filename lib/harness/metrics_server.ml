(* Tiny OpenMetrics scrape endpoint (DESIGN.md §8.3).

   Deliberately not a real HTTP server: a non-blocking listener whose
   backlog is drained by [poll] from the driver's shared service domain
   between tuner and metrics actions.  One request per connection, one
   response, connection closed — exactly the lifecycle of a Prometheus
   scrape.  Accepted clients are served synchronously with 200ms receive
   and send timeouts, so a stalled scraper cannot wedge the service loop
   for longer, and SIGPIPE is ignored during the reply, so a scraper that
   hangs up early costs an [EPIPE], not the process. *)

let content_type = "application/openmetrics-text; version=1.0.0; charset=utf-8"

type t = {
  sock : Unix.file_descr;
  s_port : int;
  content : unit -> string;
  mutable closed : bool;
}

let start ?(port = 0) ~content () =
  if port < 0 || port > 65535 then
    invalid_arg (Printf.sprintf "Metrics_server.start: port %d outside 0..65535" port);
  let sock = Unix.socket Unix.PF_INET Unix.SOCK_STREAM 0 in
  (try
     Unix.setsockopt sock Unix.SO_REUSEADDR true;
     Unix.bind sock (Unix.ADDR_INET (Unix.inet_addr_loopback, port));
     Unix.listen sock 16;
     Unix.set_nonblock sock
   with e ->
     Unix.close sock;
     raise e);
  let s_port =
    match Unix.getsockname sock with
    | Unix.ADDR_INET (_, p) -> p
    | Unix.ADDR_UNIX _ -> assert false
  in
  { sock; s_port; content; closed = false }

let port t = t.s_port

let response ~status ~body =
  Printf.sprintf "HTTP/1.1 %s\r\nContent-Type: %s\r\nContent-Length: %d\r\nConnection: close\r\n\r\n%s"
    status content_type (String.length body) body

let write_all fd s =
  let b = Bytes.of_string s in
  let n = Bytes.length b in
  let off = ref 0 in
  while !off < n do
    off := !off + Unix.write fd b !off (n - !off)
  done

let serve_client t client =
  Fun.protect
    ~finally:(fun () -> try Unix.close client with Unix.Unix_error _ -> ())
    (fun () ->
      Unix.setsockopt_float client Unix.SO_RCVTIMEO 0.2;
      Unix.setsockopt_float client Unix.SO_SNDTIMEO 0.2;
      let buf = Bytes.create 4096 in
      let n = try Unix.read client buf 0 4096 with Unix.Unix_error _ -> 0 in
      let request = Bytes.sub_string buf 0 n in
      let path =
        match String.split_on_char ' ' request with
        | "GET" :: path :: _ -> path
        | _ -> ""
      in
      let reply =
        match path with
        | "/" | "/metrics" -> response ~status:"200 OK" ~body:(t.content ())
        | _ -> response ~status:"404 Not Found" ~body:"# EOF\n"
      in
      let previous = Sys.signal Sys.sigpipe Sys.Signal_ignore in
      Fun.protect
        ~finally:(fun () -> Sys.set_signal Sys.sigpipe previous)
        (fun () -> try write_all client reply with Unix.Unix_error _ -> ()))

let poll t =
  if not t.closed then begin
    let continue = ref true in
    while !continue do
      match Unix.accept t.sock with
      | client, _ -> serve_client t client
      | exception Unix.Unix_error ((Unix.EAGAIN | Unix.EWOULDBLOCK | Unix.EINTR), _, _) ->
          continue := false
      | exception Unix.Unix_error _ -> continue := false
    done
  end

let stop t =
  if not t.closed then begin
    t.closed <- true;
    try Unix.close t.sock with Unix.Unix_error _ -> ()
  end
