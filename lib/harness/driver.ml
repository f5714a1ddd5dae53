(* Workload driver with two interchangeable backends:

   - [Domains]: real OCaml domains, wall-clock timed.  Exercises true
     parallelism; on the single-core container used for this reproduction it
     still provides preemptive concurrency (and is what the test suite uses),
     but cannot show parallel speed-up.

   - [Simulated]: deterministic virtual-time multicore
     ([Partstm_simcore.Sim] + cost model).  This is what regenerates the
     paper's scaling figures (DESIGN.md §6).

   A workload is a [worker] function that runs operations until
   [ctx.should_stop] returns true and returns its operation count. *)

open Partstm_util
open Partstm_core
open Partstm_simcore

type ctx = {
  worker_id : int;
  rng : Rng.t;
  should_stop : unit -> bool;
  progress : unit -> float;  (* fraction of the run elapsed, in [0, 1] *)
  attempt_tick : unit -> unit;
      (* called once per aborted transaction attempt (wire it as the
         descriptor's retry hook): advances the deadline countdown so a
         worker livelocked inside one [atomically] still observes the end
         of the measured window instead of only counting completed ops *)
}

type mode =
  | Domains of { seconds : float }
  | Simulated of { cycles : int; model : Cost_model.t; jitter : int; sim_seed : int }

let default_sim ?(cycles = 3_000_000) ?(model = Cost_model.default) ?(jitter = 2) () =
  Simulated { cycles; model; jitter; sim_seed = 0xBEEF }

type result = {
  workers : int;
  elapsed : float;  (* seconds (Domains) or virtual cycles (Simulated) *)
  total_ops : int;
  per_worker_ops : int array;
  throughput : float;  (* ops per second / ops per 1M cycles *)
}

let mode_to_string = function
  | Domains { seconds } -> Printf.sprintf "domains(%.2fs)" seconds
  | Simulated { cycles; _ } -> Printf.sprintf "sim(%dc)" cycles

(* Warn once per process, not per run: bench sweeps on a small machine
   would otherwise repeat the same line for every arm. *)
let warned_oversubscription = ref false

(* In-run service actions (tuner steps and metrics samples) form one
   schedule: each entry [(steps, act)] runs [act] [steps] times, evenly
   spaced across the run.  Simulated runs give each entry its own fiber;
   Domains runs serve them all from one service domain.  Any observer
   perturbs a schedule slightly, so compare runs with like
   instrumentation. *)
let run ?tuner ?(tuner_steps = 40) ?tracer ?metrics ?(metrics_steps = 0) ?(seed = 42) ~mode
    ~workers worker =
  if workers <= 0 then invalid_arg "Driver.run: workers";
  List.iter
    (fun (name, steps) -> if steps < 0 then invalid_arg ("Driver.run: " ^ name))
    [ ("tuner_steps", tuner_steps); ("metrics_steps", metrics_steps) ];
  (* Bridge tuner decisions into the tracer's timeline.  The subscription
     outlives the run (Tuner has no unsubscribe); tuners are created per
     run in practice, and a repeat run with the same pair only duplicates
     decision instants, never spans. *)
  (match (tracer, tuner) with
  | Some tracer, Some tuner ->
      Tuner.on_event tuner (fun (ev : Tuner.event) ->
          Partstm_obs.Tracer.record_decision tracer ~partition:ev.Tuner.ev_partition
            ~from_mode:(Fmt.str "%a" Partstm_stm.Mode.pp ev.Tuner.ev_from)
            ~to_mode:(Fmt.str "%a" Partstm_stm.Mode.pp ev.Tuner.ev_to))
  | _ -> ());
  (* [steps = 0] schedules nothing: the object still gets its clock and,
     for the metrics plane, the final sample after the run. *)
  let entry steps act = function
    | Some x when steps > 0 -> Some (steps, fun () -> act x)
    | _ -> None
  in
  let tuner_entry = entry tuner_steps Tuner.step tuner in
  let metrics_entry = entry metrics_steps Metrics_plane.sample metrics in
  (* One run clock stamps spans, latencies, series rows and decisions. *)
  let set_clock clock =
    Option.iter (fun t -> Partstm_obs.Tracer.set_clock t clock) tracer;
    Option.iter (fun m -> Metrics_plane.set_clock m clock) metrics;
    Option.iter (fun t -> Tuner.set_clock t clock) tuner
  in
  let finish ~time =
    Option.iter Partstm_obs.Tracer.clear_clock tracer;
    Option.iter Tuner.clear_clock tuner;
    (* The metrics plane always gets one final sample after the run,
       stamped with the run's actual end, so its series covers the last
       (possibly partial) period and counters, the affinity matrix and at
       least one SLO window reflect the whole run even with
       [metrics_steps = 0] (the default, which leaves simulated schedules
       bit-identical to a metrics-off run). *)
    Option.iter
      (fun plane ->
        Metrics_plane.set_clock plane (Fun.const time);
        Metrics_plane.sample plane;
        Metrics_plane.clear_clock plane)
      metrics
  in
  let master = Rng.make seed in
  let ops = Array.make workers 0 in
  let result elapsed ~throughput =
    let total_ops = Array.fold_left ( + ) 0 ops in
    {
      workers;
      elapsed;
      total_ops;
      per_worker_ops = Array.copy ops;
      throughput = throughput (float_of_int total_ops);
    }
  in
  match mode with
  | Simulated { cycles; model; jitter; sim_seed } ->
      let worker_body id _fiber =
        let ctx =
          {
            worker_id = id;
            rng = Rng.split master ~index:id;
            should_stop = (fun () -> Sim.now () >= cycles);
            progress = (fun () -> float_of_int (Sim.now ()) /. float_of_int cycles);
            (* Simulated deadlines are virtual-time reads with no countdown
               to advance; retries already charge cycles. *)
            attempt_tick = (fun () -> ());
          }
        in
        ops.(id) <- worker ctx
      in
      let service_body (steps, act) _fiber =
        let period = max 1 (cycles / steps) in
        while Sim.now () < cycles do
          Sim.yield period;
          (* The last yield may overshoot the deadline; don't act outside
             the measured window. *)
          if Sim.now () < cycles then act ()
        done
      in
      (* Timestamps are virtual cycles; the clock charges no virtual time,
         so observing cannot perturb a simulated schedule. *)
      set_clock Sim.now;
      (* The tuner's fiber slot is always present (idle without a tuner
         or steps), which keeps historical schedules; the plane adds a
         fiber only when scheduled, so the default metrics plane replays
         the metrics-off schedule bit-for-bit. *)
      let bodies =
        List.init workers (fun id -> worker_body id)
        @ [ (match tuner_entry with Some e -> service_body e | None -> fun _ -> ()) ]
        @ List.map service_body (Option.to_list metrics_entry)
      in
      Sim_env.install ~model ();
      let outcome =
        Fun.protect ~finally:Sim_env.uninstall (fun () ->
            Sim.run ~jitter ~seed:sim_seed bodies)
      in
      (* Workers stop at the first [should_stop] at or past the deadline, so
         the run really ends at the makespan, not at the nominal budget;
         using [cycles] here would overstate throughput. *)
      let end_cycle = max cycles outcome.Sim.makespan in
      finish ~time:end_cycle;
      let elapsed_cycles = float_of_int end_cycle in
      result elapsed_cycles ~throughput:(fun ops -> ops /. (elapsed_cycles /. 1_000_000.))
  | Domains { seconds } ->
      let start = Unix.gettimeofday () in
      let deadline = start +. seconds in
      let make_ctx id =
        (* Check the wall clock only every few iterations; a syscall per
           operation would dominate short transactions.  [attempt_tick]
           shares the same countdown, so repeated aborts inside one
           [atomically] also burn it down and the deadline is observed even
           by a livelocked worker — without it, only completed operations
           counted and a worker stuck retrying overran the measured
           window. *)
        let countdown = ref 0 in
        let stopped = ref false in
        let check () =
          if not !stopped then
            if !countdown > 0 then decr countdown
            else begin
              countdown := 32;
              stopped := Unix.gettimeofday () >= deadline
            end
        in
        let should_stop () =
          check ();
          !stopped
        in
        {
          worker_id = id;
          rng = Rng.split master ~index:id;
          should_stop;
          progress = (fun () -> min 1.0 ((Unix.gettimeofday () -. start) /. seconds));
          attempt_tick = check;
        }
      in
      (* All entries share ONE service domain, so a run costs at most
         [workers + 1] domains.  Each entry keeps its own absolute next-due
         time; the loop sleeps to the earliest, never past the deadline,
         and reschedules an entry from "now" after it runs (a slow step
         skips missed slots instead of bursting to catch up). *)
      let entries = Option.to_list tuner_entry @ Option.to_list metrics_entry in
      let serving = match metrics with Some plane -> Metrics_plane.has_server plane | None -> false in
      let service_thread () =
        let slots =
          List.map
            (fun (steps, act) ->
              let period = seconds /. float_of_int steps in
              (period, act, ref (start +. period)))
            entries
        in
        let rec loop () =
          let next = List.fold_left (fun m (_, _, due) -> Float.min m !due) Float.infinity slots in
          (* With a live scrape endpoint the loop must keep waking to drain
             pending connections even when no sampling action is due soon;
             cap the sleep so a scrape is answered within ~50ms. *)
          let next = if serving then Float.min next (Unix.gettimeofday () +. 0.05) else next in
          if next < deadline then begin
            let now = Unix.gettimeofday () in
            if next > now then Unix.sleepf (Float.min (next -. now) (deadline -. now));
            let now = Unix.gettimeofday () in
            if now < deadline then begin
              if serving then Option.iter Metrics_plane.poll_server metrics;
              List.iter
                (fun (period, act, due) ->
                  if !due <= now then begin
                    act ();
                    due := now +. period
                  end)
                slots;
              loop ()
            end
          end
        in
        loop ()
      in
      let service_domains = if entries <> [] || serving then 1 else 0 in
      let recommended = Domain.recommended_domain_count () in
      if workers + service_domains > recommended && not !warned_oversubscription then begin
        warned_oversubscription := true;
        Printf.eprintf
          "driver: %d domains (%d workers%s) exceed recommended_domain_count = %d; expect \
           timeslicing, not parallel speed-up\n\
           %!"
          (workers + service_domains) workers
          (if service_domains > 0 then " + 1 service" else "")
          recommended
      end;
      (* Nanoseconds since run start, so timestamps stay integral and
         Chrome export divides by 1000 to reach microseconds.  Monotonic,
         unlike the wall clock, which steps under NTP; and read without
         boxing a float. *)
      let start_ns = Int64.to_int (Monotonic_clock.now ()) in
      let run_ns () = Int64.to_int (Monotonic_clock.now ()) - start_ns in
      set_clock run_ns;
      let domains =
        List.init workers (fun id ->
            Domain.spawn (fun () -> ops.(id) <- worker (make_ctx id)))
      in
      let service_domain =
        if service_domains > 0 then Some (Domain.spawn service_thread) else None
      in
      List.iter Domain.join domains;
      Option.iter Domain.join service_domain;
      let elapsed = Unix.gettimeofday () -. start in
      finish ~time:(run_ns ());
      result elapsed ~throughput:(fun ops -> ops /. elapsed)
