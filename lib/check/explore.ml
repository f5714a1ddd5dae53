(* Schedule exploration: run a scenario under many schedules, feed every
   run through the oracle and the scenario's own invariants, and on
   failure shrink the schedule to a minimal replayable reproducer.

   Three pluggable strategies drive the simulator's [choose] hook:

   - Random walk: uniform choice among runnable fibers.
   - PCT (probabilistic concurrency testing): random distinct fiber
     priorities plus [depth - 1] priority-change points; always runs the
     highest-priority runnable fiber.  Guarantees a d-deep ordering bug
     is hit with probability >= 1/(n * k^(d-1)) per schedule.
   - Bounded-preemption DFS: systematic enumeration of schedules that
     follow a non-preemptive baseline (keep running the current fiber)
     except for at most [max_preemptions] forced switches, deepest
     decision first, stateless re-execution from a forced prefix.

   Fault injection composes with the randomized strategies: each
   schedule may draw kill points (fiber, global yield index); a kill
   discontinues the fiber with [Sim.Fiber_killed] at that yield, except
   inside masked critical sections (commit publish, rollback, quiesce). *)

open Partstm_util
open Partstm_simcore

type strategy =
  | Random_walk
  | Pct of { depth : int }
  | Dfs of { max_preemptions : int }

let strategy_name = function
  | Random_walk -> "random-walk"
  | Pct { depth } -> Fmt.str "pct(depth=%d)" depth
  | Dfs { max_preemptions } -> Fmt.str "dfs(preemptions=%d)" max_preemptions

type verdict =
  | Clean of Oracle.report
  | Bad of string list
  | Abandoned  (* hit the step limit: a divergent schedule, not a failure *)

type stats = {
  mutable schedules : int;
  mutable abandoned : int;
  mutable committed : int;
  mutable aborted : int;
}

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

(* -- Running one schedule -------------------------------------------------- *)

let execute (scenario : Scenario.t) ~max_yields ~choose ~interrupt =
  let inst = scenario.Scenario.make () in
  let result =
    Sim_env.with_model (fun () ->
        try
          ignore (Sim.run ~max_yields ~choose ?interrupt inst.Scenario.bodies);
          true
        with Sim.Step_limit_exceeded _ -> false)
  in
  if not result then Abandoned
  else begin
    let report = Oracle.check (History.events inst.Scenario.history) in
    let errors =
      List.map (Fmt.str "%a" Oracle.pp_anomaly) report.Oracle.anomalies @ inst.Scenario.check ()
    in
    if errors = [] then Clean report else Bad errors
  end

let replay scenario ?(max_yields = 1_000_000) (schedule : Schedule.t) =
  execute scenario ~max_yields ~choose:(Schedule.replayer schedule)
    ~interrupt:(Schedule.interrupter schedule)

(* -- Minimization ---------------------------------------------------------- *)

(* Delta-debug the failing schedule: first drop kill points one by one,
   then ddmin the decision list (replaying a candidate; decisions past
   the shortened list fall back to the deterministic min-clock policy).
   Every candidate replay is exact, so the result provably still fails.
   At most 400 candidates are replayed. *)
let minimize ?max_yields scenario (schedule : Schedule.t) =
  let max_replays = 400 in
  let replays = ref 0 in
  let fails (candidate : Schedule.t) =
    if !replays >= max_replays then false
    else begin
      incr replays;
      match replay scenario ?max_yields candidate with
      | Bad _ -> true
      | Clean _ | Abandoned -> false
    end
  in
  if not (fails schedule) then schedule
  else begin
    let rec shrink_kills (s : Schedule.t) =
      let rec try_each before = function
        | [] -> None
        | k :: rest ->
            let candidate = { s with Schedule.kills = List.rev_append before rest } in
            if fails candidate then Some candidate else try_each (k :: before) rest
      in
      match try_each [] s.Schedule.kills with Some s' -> shrink_kills s' | None -> s
    in
    let split_chunks lst size =
      let rec go acc current k = function
        | [] -> List.rev (if current = [] then acc else List.rev current :: acc)
        | x :: rest ->
            if k = size then go (List.rev current :: acc) [ x ] 1 rest
            else go acc (x :: current) (k + 1) rest
      in
      go [] [] 0 lst
    in
    let rec ddmin (s : Schedule.t) n =
      let decisions = s.Schedule.decisions in
      let len = List.length decisions in
      if len < 2 then s
      else begin
        let n = min n len in
        let size = (len + n - 1) / n in
        let chunks = split_chunks decisions size in
        let rec try_complement before = function
          | [] -> None
          | chunk :: rest ->
              let candidate =
                { s with Schedule.decisions = List.concat (List.rev_append before rest) }
              in
              if fails candidate then Some candidate else try_complement (chunk :: before) rest
        in
        match try_complement [] chunks with
        | Some smaller -> ddmin smaller (max 2 (n - 1))
        | None -> if n >= len then s else ddmin s (min len (2 * n))
      end
    in
    ddmin (shrink_kills schedule) 2
  end

(* -- Randomized strategies ------------------------------------------------- *)

let random_walk_choose rng (runnable : Sim.choice array) = Rng.int rng (Array.length runnable)

(* A fiber scheduled this many consecutive times while others are
   runnable is spinning on state only another fiber can change (a held
   lock, a reader counter, the freeze bit): the engine's spin loops all
   resolve within a handful of yields otherwise.  Strict-priority
   strategies must demote such a fiber or the schedule livelocks into
   the step limit. *)
let spin_cap = 128

let pct_choose rng ~fibers ~depth ~est_len =
  let order = Array.init fibers (fun i -> i) in
  Rng.shuffle_in_place rng order;
  let priority = Array.make fibers 0 in
  Array.iteri (fun rank fiber -> priority.(fiber) <- fibers - rank) order;
  let change_points =
    ref
      (List.sort_uniq compare
         (List.init (max 0 (depth - 1)) (fun _ -> 1 + Rng.int rng (max 1 est_len))))
  in
  let demoted = ref 0 in
  let steps = ref 0 in
  let last = ref (-1) in
  let consecutive = ref 0 in
  let demote fiber =
    decr demoted;
    priority.(fiber) <- !demoted
  in
  fun (runnable : Sim.choice array) ->
    incr steps;
    (match !change_points with
    | p :: rest when !steps >= p ->
        change_points := rest;
        if !last >= 0 then demote !last
    | _ -> ());
    if !consecutive >= spin_cap && !last >= 0 && Array.length runnable > 1 then begin
      demote !last;
      consecutive := 0
    end;
    let best = ref 0 in
    Array.iteri
      (fun i c ->
        if priority.(c.Sim.c_fiber) > priority.(runnable.(!best).Sim.c_fiber) then best := i)
      runnable;
    let chosen = runnable.(!best).Sim.c_fiber in
    consecutive := (if chosen = !last then !consecutive + 1 else 0);
    last := chosen;
    !best

let randomized scenario ~strategy ~budget ~seed ~kill_budget ~max_yields =
  let master = Rng.make seed in
  let est_len = ref 512 in
  let stats = { schedules = 0; abandoned = 0; committed = 0; aborted = 0 } in
  let fibers = scenario.Scenario.fibers in
  let rec iter i =
    if i > budget then
      Passed
        {
          schedules = stats.schedules;
          abandoned = stats.abandoned;
          committed = stats.committed;
          aborted = stats.aborted;
        }
    else begin
      let rng = Rng.split master ~index:i in
      let kills =
        List.init kill_budget (fun _ -> (Rng.int rng fibers, 1 + Rng.int rng (2 * !est_len)))
      in
      let base =
        match strategy with
        | Random_walk -> random_walk_choose rng
        | Pct { depth } -> pct_choose rng ~fibers ~depth ~est_len:!est_len
        | Dfs _ -> invalid_arg "Explore.randomized: DFS is not a randomized strategy"
      in
      let choose, trace = Schedule.recording base in
      let interrupt =
        if kills = [] then None else Some (fun ~fiber ~yields -> List.mem (fiber, yields) kills)
      in
      stats.schedules <- stats.schedules + 1;
      match execute scenario ~max_yields ~choose ~interrupt with
      | Abandoned ->
          stats.abandoned <- stats.abandoned + 1;
          iter (i + 1)
      | Clean report ->
          stats.committed <- stats.committed + report.Oracle.committed;
          stats.aborted <- stats.aborted + report.Oracle.aborted;
          est_len := max 16 (List.length (trace ()));
          iter (i + 1)
      | Bad errors ->
          let schedule = Schedule.make ~kills ~seed (trace ()) in
          let minimized = minimize ~max_yields:(4 * max_yields) scenario schedule in
          Failed
            {
              f_scenario = scenario.Scenario.name;
              f_strategy = strategy;
              f_errors = errors;
              f_schedule = schedule;
              f_minimized = minimized;
              f_schedules_run = stats.schedules;
            }
    end
  in
  iter 1

(* -- Bounded-preemption DFS ------------------------------------------------ *)

let dfs scenario ~max_preemptions ~budget ~max_yields =
  let stats = { schedules = 0; abandoned = 0; committed = 0; aborted = 0 } in
  let run_with prefix =
    let prefix = Array.of_list prefix in
    let trace = ref [] in
    let depth = ref 0 in
    let last = ref (-1) in
    let consecutive = ref 0 in
    let choose (runnable : Sim.choice array) =
      let ids = Array.map (fun c -> c.Sim.c_fiber) runnable in
      let find fiber =
        let n = Array.length ids in
        let rec scan i = if i >= n then None else if ids.(i) = fiber then Some i else scan (i + 1) in
        scan 0
      in
      let idx =
        if !depth < Array.length prefix then
          match find prefix.(!depth) with Some i -> i | None -> Schedule.min_clock_index runnable
        else if !consecutive >= spin_cap && Array.length ids > 1 then
          (* The current fiber is spinning on another fiber's progress:
             rotate to the next runnable id.  Part of the deterministic
             baseline, so not a counted preemption. *)
          match find !last with Some i -> (i + 1) mod Array.length ids | None -> 0
        else
          (* Non-preemptive baseline: keep running the current fiber;
             when it blocks or finishes, fall to the lowest id. *)
          match find !last with Some i -> i | None -> 0
      in
      let chosen = ids.(idx) in
      trace := (Array.to_list ids, chosen) :: !trace;
      incr depth;
      consecutive := (if chosen = !last then !consecutive + 1 else 0);
      last := chosen;
      idx
    in
    let verdict = execute scenario ~max_yields ~choose ~interrupt:None in
    (verdict, Array.of_list (List.rev !trace))
  in
  (* A schedule is identified by its list of deviations from the
     non-preemptive baseline: (position, fiber) pairs at strictly
     increasing positions.  Enumerate deviation lists depth-first with
     three orderings that put realistic window bugs first:

     - iterative deepening on the preemption count (CHESS-style context
       bounding): every schedule reachable with b preemptions is tried
       before any needing b + 1, so minimal-preemption reproducers come
       out first and the cheap bounds are exhausted systematically;
     - earliest position first within a bound (a deepest-first order
       would bury early preemptions — where conflict-window bugs live —
       behind the combinatorial tail of late-schedule deviations);
     - most-starved fiber first among the alternatives at one position:
       the non-preemptive baseline runs fibers to completion in id
       order, so deviating to the fiber the baseline would run *last*
       creates the most different schedule first.

     Distinct deviation lists yield distinct decision sequences, so no
     schedule runs twice within a bound (re-running shared prefixes
     across bounds is the usual iterative-deepening overhead);
     recursion depth is at most the deviation count, so live state is
     O(preemptions * trace), not the whole tree. *)
  let exception Found of string list * int list in
  let rec explore prefix start_pos used bound =
    if stats.schedules < budget then begin
      stats.schedules <- stats.schedules + 1;
      let verdict, trace = run_with prefix in
      (match verdict with
      | Clean report ->
          stats.committed <- stats.committed + report.Oracle.committed;
          stats.aborted <- stats.aborted + report.Oracle.aborted
      | Abandoned -> stats.abandoned <- stats.abandoned + 1
      | Bad errors -> raise (Found (errors, Array.to_list (Array.map snd trace))));
      for p = start_pos to Array.length trace - 1 do
        let ids, chosen = trace.(p) in
        let prev = if p = 0 then -1 else snd trace.(p - 1) in
        List.iter
          (fun alt ->
            if alt <> chosen then begin
              (* Switching away from a still-runnable fiber costs a
                 preemption; taking over after a block/finish is free. *)
              let cost = if prev >= 0 && List.mem prev ids && alt <> prev then 1 else 0 in
              if used + cost <= bound && stats.schedules < budget then
                explore
                  (List.init p (fun i -> snd trace.(i)) @ [ alt ])
                  (p + 1) (used + cost) bound
            end)
          (List.rev ids)
      done
    end
  in
  let result =
    try
      for bound = 0 to max_preemptions do
        explore [] 0 0 bound
      done;
      None
    with Found (errors, decisions) -> Some (errors, decisions)
  in
  match result with
  | None ->
      Passed
        {
          schedules = stats.schedules;
          abandoned = stats.abandoned;
          committed = stats.committed;
          aborted = stats.aborted;
        }
  | Some (errors, decisions) ->
      let schedule = Schedule.make ~seed:0 decisions in
      let minimized = minimize ~max_yields:(4 * max_yields) scenario schedule in
      Failed
        {
          f_scenario = scenario.Scenario.name;
          f_strategy = Dfs { max_preemptions };
          f_errors = errors;
          f_schedule = schedule;
          f_minimized = minimized;
          f_schedules_run = stats.schedules;
        }

(* -- Entry point ----------------------------------------------------------- *)

let run ?(seed = 0x9e3779b9) ?(budget = 256) ?(max_yields = 100_000) ?(kills = 0) strategy
    scenario =
  match strategy with
  | Dfs { max_preemptions } -> dfs scenario ~max_preemptions ~budget ~max_yields
  | Random_walk | Pct _ ->
      randomized scenario ~strategy ~budget ~seed ~kill_budget:kills ~max_yields

let pp_failure ppf f =
  Fmt.pf ppf
    "@[<v>scenario %s failed under %s after %d schedule(s)@,%a@,full schedule: %d decisions@,minimized reproducer:@,  %a@]"
    f.f_scenario (strategy_name f.f_strategy) f.f_schedules_run
    Fmt.(list ~sep:cut (fun ppf e -> Fmt.pf ppf "  anomaly: %s" e))
    f.f_errors
    (List.length f.f_schedule.Schedule.decisions)
    Schedule.pp f.f_minimized

let pp_outcome ppf = function
  | Passed { schedules; abandoned; committed; aborted } ->
      Fmt.pf ppf "passed: %d schedules (%d abandoned), %d commits, %d aborts" schedules abandoned
        committed aborted
  | Failed f -> pp_failure ppf f
