(* Helenos-style social-feed service (DESIGN.md §11).

   Data layout — four partitions, four traffic shapes:

     profiles   one int tvar per user (post count).  Point-read by every
                timeline read, bumped by posts: read-mostly, uncontended.
     follows    one int-array tvar per user (follower ids, static after
                setup).  Read by post fan-out, never written during the
                run: pure read traffic.
     timelines  per-user ring of post ids plus a head counter.  Timeline
                reads are read-only multi-slot transactions; celebrity
                posts fan out writes across many followers' rings, so
                readers of hot timelines keep failing validation — the
                mv-entry signal (read-dominated + wasted read-only work).
     counters   [counters] like counters plus one global total.  Every
                like increments one counter AND the total, so all likes
                collide on a single tvar: small footprint, update-heavy,
                high abort rate — the ctl-entry signal.

   The invariant probes ride the workload: a timeline read checks every
   ring slot below the head is a real post id, and the trending scan reads
   all counters plus the total in one transaction and checks
   like_total = Σ counters — both must hold in any consistent snapshot. *)

open Partstm_util
open Partstm_stm
open Partstm_core
open Partstm_harness

type config = {
  users : int;
  celebrities : int;
  followers_per_user : int;
  timeline_len : int;
  counters : int;
  theta : float;
  read_pct : int;
  post_pct : int;
  like_pct : int;
  trend_pct : int;
  max_workers : int;
}

let default_config =
  {
    users = 512;
    celebrities = 4;
    followers_per_user = 6;
    timeline_len = 8;
    counters = 32;
    theta = 0.9;
    read_pct = 56;
    post_pct = 6;
    like_pct = 34;
    trend_pct = 4;
    max_workers = 64;
  }

let quick_config = { default_config with users = 256 }

let bench_sim_cycles ~quick = if quick then 1_200_000 else 3_000_000
let bench_workers = 8

type t = {
  system : System.t;
  config : config;
  profiles_p : Partition.t;
  follows_p : Partition.t;
  timelines_p : Partition.t;
  counters_p : Partition.t;
  profiles : int Tvar.t array;
  follows : int array Tvar.t array;
  tl_heads : int Tvar.t array;
  tl_slots : int Tvar.t array;  (* user u's ring: [u*len .. u*len+len-1] *)
  likes : int Tvar.t array;
  like_total : int Tvar.t;
  next_post : int Atomic.t;
  user_zipf : Zipf.t;
  counter_zipf : Zipf.t;
  violations : int array;  (* per worker *)
  op_counts : int array array;  (* per worker: reads/posts/likes/trends *)
}

(* Follower sets are fixed at setup: everyone follows every celebrity, and
   each ordinary user additionally picks a deterministic stride of
   followers — enough fan-out to make celebrity posts invalidate many
   concurrent timeline readers, zero setup randomness. *)
let followers_of config u =
  let n = config.users in
  if u < config.celebrities then
    Array.init (n - 1) (fun i -> if i < u then i else i + 1)
  else
    Array.init (min config.followers_per_user (n - 1)) (fun i ->
        let f = (u + ((i + 1) * 37)) mod n in
        if f = u then (f + 1) mod n else f)

let setup system ~strategy config =
  if config.users <= 0 || config.celebrities < 0 || config.celebrities > config.users then
    invalid_arg "Feed.setup: users/celebrities";
  if config.timeline_len <= 0 || config.counters <= 0 then
    invalid_arg "Feed.setup: timeline_len/counters";
  if config.read_pct + config.post_pct + config.like_pct + config.trend_pct <> 100 then
    invalid_arg "Feed.setup: operation percents must sum to 100";
  let parts =
    Alloc.partitions_for system ~strategy
      [
        ("feed-profiles", "feed.profiles.anchor");
        ("feed-follows", "feed.follows.anchor");
        ("feed-timelines", "feed.timelines.anchor");
        ("feed-counters", "feed.counters.anchor");
      ]
  in
  let profiles_p, follows_p, timelines_p, counters_p =
    match parts with
    | [ a; b; c; d ] -> (a, b, c, d)
    | [ shared ] -> (shared, shared, shared, shared)
    | _ -> invalid_arg "Feed.setup: unexpected partition allocation"
  in
  {
    system;
    config;
    profiles_p;
    follows_p;
    timelines_p;
    counters_p;
    profiles = Array.init config.users (fun _ -> Partition.tvar profiles_p 0);
    follows =
      Array.init config.users (fun u -> Partition.tvar follows_p (followers_of config u));
    tl_heads = Array.init config.users (fun _ -> Partition.tvar timelines_p 0);
    tl_slots =
      Array.init (config.users * config.timeline_len) (fun _ ->
          Partition.tvar timelines_p (-1));
    likes = Array.init config.counters (fun _ -> Partition.tvar counters_p 0);
    like_total = Partition.tvar counters_p 0;
    next_post = Atomic.make 0;
    user_zipf = Zipf.make ~n:config.users ~theta:config.theta;
    counter_zipf = Zipf.make ~n:config.counters ~theta:config.theta;
    violations = Array.make config.max_workers 0;
    op_counts = Array.init config.max_workers (fun _ -> Array.make 4 0);
  }

(* Append [post_id] to user [f]'s ring (caller is inside a transaction). *)
let append_timeline t txn f post_id =
  let len = t.config.timeline_len in
  let head = System.read txn t.tl_heads.(f) in
  System.write txn t.tl_slots.((f * len) + (head mod len)) post_id;
  System.write txn t.tl_heads.(f) (head + 1)

let timeline_read t txn u =
  let len = t.config.timeline_len in
  let head = System.read txn t.tl_heads.(u) in
  let filled = min head len in
  let faults = ref 0 in
  for i = 0 to filled - 1 do
    if System.read txn t.tl_slots.((u * len) + i) < 0 then incr faults
  done;
  (* Profile point-read keeps the profiles partition on the hot path. *)
  ignore (System.read txn t.profiles.(u));
  !faults

let post t txn author =
  let post_id = Atomic.fetch_and_add t.next_post 1 in
  let followers = System.read txn t.follows.(author) in
  System.write txn t.profiles.(author) (System.read txn t.profiles.(author) + 1);
  append_timeline t txn author post_id;
  Array.iter (fun f -> append_timeline t txn f post_id) followers

(* A like bumps its counter and the global total, but first reads the top
   of the leaderboard (the hottest, Zipf-favoured counters) to decide
   whether the liked post just entered it — so every like both writes the
   total and reads counters other likes are writing, the all-colliding
   update traffic that makes the counter block a commit-time-locking
   candidate. *)
let like t txn c =
  let top = min 4 (Array.length t.likes) in
  let lo = ref max_int in
  for i = 0 to top - 1 do
    lo := min !lo (System.read txn t.likes.(i))
  done;
  let mine = System.read txn t.likes.(c) + 1 in
  System.write txn t.likes.(c) mine;
  ignore (mine > !lo);
  System.write txn t.like_total (System.read txn t.like_total + 1)

let trending t txn =
  let sum = ref 0 in
  Array.iter (fun c -> sum := !sum + System.read txn c) t.likes;
  if System.read txn t.like_total <> !sum then 1 else 0

let worker t (ctx : Driver.ctx) =
  let config = t.config in
  let txn = System.descriptor t.system ~worker_id:ctx.Driver.worker_id in
  System.set_retry_hook txn ctx.Driver.attempt_tick;
  let rng = ctx.Driver.rng in
  let counts = t.op_counts.(ctx.Driver.worker_id) in
  let bad = ref 0 in
  let operations = ref 0 in
  let read_hi = config.read_pct in
  let post_hi = read_hi + config.post_pct in
  let like_hi = post_hi + config.like_pct in
  while not (ctx.Driver.should_stop ()) do
    let roll = Rng.int rng 100 in
    if roll < read_hi then begin
      let u = Zipf.sample t.user_zipf rng in
      let faults = System.atomically txn (fun th -> timeline_read t th u) in
      bad := !bad + faults;
      counts.(0) <- counts.(0) + 1
    end
    else if roll < post_hi then begin
      let author = Zipf.sample t.user_zipf rng in
      System.atomically txn (fun th -> post t th author);
      counts.(1) <- counts.(1) + 1
    end
    else if roll < like_hi then begin
      let c = Zipf.sample t.counter_zipf rng in
      System.atomically txn (fun th -> like t th c);
      counts.(2) <- counts.(2) + 1
    end
    else begin
      let faults = System.atomically txn (fun th -> trending t th) in
      bad := !bad + faults;
      counts.(3) <- counts.(3) + 1
    end;
    incr operations
  done;
  t.violations.(ctx.Driver.worker_id) <- t.violations.(ctx.Driver.worker_id) + !bad;
  !operations

let total_violations t = Array.fold_left ( + ) 0 t.violations

let check t =
  total_violations t = 0
  && Tvar.peek t.like_total = Array.fold_left (fun acc c -> acc + Tvar.peek c) 0 t.likes

(* -- Orchestrated runs ------------------------------------------------------- *)

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
  r_explain : explain_entry list;
  r_timeline_reads : int;
  r_posts : int;
  r_likes : int;
  r_trends : int;
  r_verified : bool;
}

let run ?(progress = fun (_ : string) -> ()) ~backend ~workers ~seed config =
  (* Per-worker counters cover every worker id the system hands out. *)
  let p =
    Workload.prepare ~cooldown:1 ~workers ~strategy:Strategy.tuned (fun system ~strategy ->
        let max_workers = (System.engine system).Partstm_stm.Engine.max_workers in
        setup system ~strategy
          { config with max_workers = max config.max_workers max_workers })
  in
  let state = p.state and tuner = Option.get p.tuner in
  let config = state.config in
  let initial_modes =
    List.map
      (fun p -> (Partition.name p, Mode.to_string (Partition.mode p)))
      [ state.profiles_p; state.follows_p; state.timelines_p; state.counters_p ]
  in
  let explain = ref [] in
  Tuner.on_event tuner (fun ev ->
      explain :=
        {
          ex_tick = ev.Tuner.ev_tick;
          ex_partition = ev.Tuner.ev_partition;
          ex_from = Mode.to_string ev.Tuner.ev_from;
          ex_to = Mode.to_string ev.Tuner.ev_to;
          ex_triggered = ev.Tuner.ev_why.Tuning_policy.w_triggered;
        }
        :: !explain);
  let backend_name, mode =
    match backend with
    | `Sim cycles -> ("sim", Driver.default_sim ~cycles ())
    | `Domains seconds -> ("domains", Driver.Domains { seconds })
  in
  progress
    (Printf.sprintf "feed %s: %d users (%d celebs), %d counters, %d workers" backend_name
       config.users config.celebrities config.counters workers);
  (* Feed transactions are heavyweight (fan-out posts, whole-counter-block
     trending scans), so a run completes far fewer of them than the µ-bench
     workloads; a handful of long sampling periods keeps each one above the
     policy's [min_attempts] floor per partition. *)
  let result = Driver.run ~tuner ~tuner_steps:4 ~seed ~mode ~workers (worker state) in
  let count i = Array.fold_left (fun acc c -> acc + c.(i)) 0 state.op_counts in
  let outcomes =
    List.map
      (fun p ->
        let name = Partition.name p in
        let initial = List.assoc name initial_modes in
        {
          po_name = name;
          po_initial = initial;
          po_final = Mode.to_string (Partition.mode p);
          po_switches = List.length (List.filter (fun e -> e.ex_partition = name) !explain);
        })
      [ state.profiles_p; state.follows_p; state.timelines_p; state.counters_p ]
  in
  {
    r_backend = backend_name;
    r_workers = workers;
    r_seed = seed;
    r_config = config;
    r_result = result;
    r_outcomes = outcomes;
    r_explain = List.rev !explain;
    r_timeline_reads = count 0;
    r_posts = count 1;
    r_likes = count 2;
    r_trends = count 3;
    r_verified = check state;
  }

let distinct_final_modes report =
  List.length (List.sort_uniq compare (List.map (fun o -> o.po_final) report.r_outcomes))

(* -- Acceptance checks ------------------------------------------------------- *)

type verdict = [ `Passed | `Failed of string ]

let check_invariants report =
  if report.r_verified then `Passed
  else `Failed "a timeline read or trending snapshot observed an inconsistent state"

let check_divergence report =
  let distinct = distinct_final_modes report in
  if distinct >= 2 then `Passed
  else
    `Failed
      (Printf.sprintf "tuner did not specialise: all partitions ended in the same mode (%s)"
         (match report.r_outcomes with o :: _ -> o.po_final | [] -> "?"))

let check_explained report =
  match List.find_opt (fun e -> e.ex_triggered = []) report.r_explain with
  | Some e ->
      `Failed
        (Printf.sprintf "switch on %s at tick %d carries no triggered rules" e.ex_partition
           e.ex_tick)
  | None -> `Passed

let checks report =
  [
    ("invariants", check_invariants report);
    ("divergent_modes", check_divergence report);
    ("explained", check_explained report);
  ]

(* -- Reports ----------------------------------------------------------------- *)

let to_table report =
  let table =
    Table.create
      ~title:
        (Printf.sprintf "Feed (%s): %d users, %d workers — %d reads / %d posts / %d likes / %d trends"
           report.r_backend report.r_config.users report.r_workers report.r_timeline_reads
           report.r_posts report.r_likes report.r_trends)
      ~header:[ "partition"; "initial"; "final"; "switches" ]
  in
  List.iter
    (fun o ->
      Table.add_row table [ o.po_name; o.po_initial; o.po_final; string_of_int o.po_switches ])
    report.r_outcomes;
  table

let explain_json e =
  Json.Obj
    [
      ("tick", Json.Int e.ex_tick);
      ("partition", Json.String e.ex_partition);
      ("from", Json.String e.ex_from);
      ("to", Json.String e.ex_to);
      ("triggered", Json.List (List.map (fun m -> Json.String m) e.ex_triggered));
    ]

let verdict_to_json = function
  | `Passed -> Json.Obj [ ("status", Json.String "passed"); ("reason", Json.String "") ]
  | `Failed reason ->
      Json.Obj [ ("status", Json.String "failed"); ("reason", Json.String reason) ]

let to_json report =
  let c = report.r_config in
  Json.Obj
    [
      ("experiment", Json.String "y1");
      ( "workload",
        Json.String "feed: social-feed service (profiles/follows/timelines/counters)" );
      ("backend", Json.String report.r_backend);
      ( "config",
        Json.Obj
          [
            ("users", Json.Int c.users);
            ("celebrities", Json.Int c.celebrities);
            ("timeline_len", Json.Int c.timeline_len);
            ("counters", Json.Int c.counters);
            ("theta", Json.Float c.theta);
            ( "mix",
              Json.String
                (Printf.sprintf "read%d,post%d,like%d,trend%d" c.read_pct c.post_pct c.like_pct
                   c.trend_pct) );
            ("workers", Json.Int report.r_workers);
            ("seed", Json.Int report.r_seed);
          ] );
      ("total_ops", Json.Int report.r_result.Driver.total_ops);
      ( "throughput",
        Json.Obj
          [
            ( (match report.r_backend with "sim" -> "ops_per_mcycle" | _ -> "ops_per_sec"),
              Json.Float report.r_result.Driver.throughput );
          ] );
      ( "operations",
        Json.Obj
          [
            ("timeline_reads", Json.Int report.r_timeline_reads);
            ("posts", Json.Int report.r_posts);
            ("likes", Json.Int report.r_likes);
            ("trends", Json.Int report.r_trends);
          ] );
      ( "partitions",
        Json.List
          (List.map
             (fun o ->
               Json.Obj
                 [
                   ("name", Json.String o.po_name);
                   ("initial", Json.String o.po_initial);
                   ("final", Json.String o.po_final);
                   ("switches", Json.Int o.po_switches);
                 ])
             report.r_outcomes) );
      ("distinct_final_modes", Json.Int (distinct_final_modes report));
      ("explain", Json.List (List.map explain_json report.r_explain));
      ("verified", Json.Bool report.r_verified);
      ( "checks",
        Json.Obj (List.map (fun (name, v) -> (name, verdict_to_json v)) (checks report)) );
    ]
