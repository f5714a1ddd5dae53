(* YCSB-style keyed workload driver (experiment R-Y1, DESIGN.md §11).

   The store is [keys] integer tvars split into [partitions] contiguous key
   ranges, one STM partition per range, so the Zipf head concentrates in
   partition 0 and the tuner sees genuinely different per-partition traffic.
   Keys come from the O(1) Gray inverse-CDF sampler ([Partstm_util.Zipf]);
   every worker samples from its own split RNG stream, so runs are
   reproducible on both backends and byte-deterministic on the simulator.

   Store invariant (what [check] verifies): cell [k] starts at [k]; updates
   and inserts write [k] back, read-modify-writes write [v + 1] — so a
   consistent snapshot can never show a value below its key.  Reads and
   scans count floor violations observed inside committed transactions;
   opacity makes any such observation an engine bug, which turns every read
   path of this bench into a consistency probe.

   Latency: each completed operation is timed (virtual cycles inside the
   simulator, wall nanoseconds on domains) into a per-worker × per-phase ×
   per-op-class histogram matrix — single-writer by construction, merged
   after the workers join. *)

open Partstm_util
open Partstm_stm
open Partstm_core
open Partstm_harness
module Sim = Partstm_simcore.Sim
module Slo = Partstm_obs.Slo

(* -- Operations and mixes --------------------------------------------------- *)

type op_class = Read | Update | Insert | Scan | Rmw

let op_classes = [ Read; Update; Insert; Scan; Rmw ]
let op_count = List.length op_classes

let op_index = function Read -> 0 | Update -> 1 | Insert -> 2 | Scan -> 3 | Rmw -> 4

let op_class_name = function
  | Read -> "read"
  | Update -> "update"
  | Insert -> "insert"
  | Scan -> "scan"
  | Rmw -> "rmw"

type mix = {
  mx_name : string;
  mx_read : int;
  mx_update : int;
  mx_insert : int;
  mx_scan : int;
  mx_rmw : int;
}

let make_mix name r u i s m =
  { mx_name = name; mx_read = r; mx_update = u; mx_insert = i; mx_scan = s; mx_rmw = m }

let mix_a = make_mix "a" 50 50 0 0 0
let mix_b = make_mix "b" 95 5 0 0 0
let mix_c = make_mix "c" 100 0 0 0 0
let mix_d = make_mix "d" 95 0 5 0 0
let mix_e = make_mix "e" 0 0 5 95 0
let mix_f = make_mix "f" 50 0 0 0 50

let standard_mixes = [ mix_a; mix_b; mix_c; mix_d; mix_e; mix_f ]

let mix_to_string mix =
  match List.find_opt (fun m -> m = mix) standard_mixes with
  | Some m -> m.mx_name
  | None ->
      String.concat ","
        (List.filter_map
           (fun (tag, pct) -> if pct = 0 then None else Some (Printf.sprintf "%c%d" tag pct))
           [
             ('r', mix.mx_read);
             ('u', mix.mx_update);
             ('i', mix.mx_insert);
             ('s', mix.mx_scan);
             ('m', mix.mx_rmw);
           ])

(* -- Phases ------------------------------------------------------------------ *)

type phase = {
  ph_name : string;
  ph_weight : float;
  ph_theta : float option;
  ph_mix : mix option;
  ph_shift : float;
}

let default_phases =
  [
    { ph_name = "warm"; ph_weight = 0.25; ph_theta = Some 0.5; ph_mix = Some mix_b; ph_shift = 0.0 };
    { ph_name = "peak"; ph_weight = 0.5; ph_theta = None; ph_mix = None; ph_shift = 0.0 };
    { ph_name = "hot-shift"; ph_weight = 0.25; ph_theta = None; ph_mix = None; ph_shift = 0.37 };
  ]

let phase_to_string p =
  String.concat ":"
    ([ p.ph_name; Printf.sprintf "%g" p.ph_weight ]
    @ (match p.ph_theta with Some t -> [ Printf.sprintf "theta=%g" t ] | None -> [])
    @ (match p.ph_mix with Some m -> [ "mix=" ^ mix_to_string m ] | None -> [])
    @ if p.ph_shift <> 0.0 then [ Printf.sprintf "shift=%g" p.ph_shift ] else [])

let phases_to_string phases = String.concat "," (List.map phase_to_string phases)

(* -- Configuration ----------------------------------------------------------- *)

type config = {
  keys : int;
  partitions : int;
  theta : float;
  mix : mix;
  scan_len : int;
  phases : phase list;
  slo_quantile : float;
  slo_threshold_sim : int;
  slo_threshold_wall : int;
  max_workers : int;
}

let default_config =
  {
    keys = 4096;
    partitions = 4;
    theta = 0.99;
    mix = mix_a;
    scan_len = 16;
    phases = default_phases;
    slo_quantile = 95.0;
    slo_threshold_sim = 8192;
    slo_threshold_wall = 1_000_000;
    max_workers = 64;
  }

let quick_config = { default_config with keys = 1024; scan_len = 8 }

let bench_sim_cycles ~quick = if quick then 400_000 else 2_000_000
let bench_workers ~quick = if quick then 4 else 8

(* -- Store and worker -------------------------------------------------------- *)

(* One phase, resolved against the config: cumulative progress bound,
   effective sampler/mix and the hot-set rotation in keys. *)
type resolved_phase = {
  rp_phase : phase;
  rp_until : float;  (* phase ends at this progress fraction *)
  rp_theta : float;
  rp_mix : mix;
  rp_zipf : Zipf.t;
  rp_shift_keys : int;
}

type t = {
  system : System.t;
  config : config;
  parts : Partition.t list;
  cells : int Tvar.t array;  (* flat; cell k lives in partition k*P/keys *)
  resolved : resolved_phase array;
  head : int Atomic.t;  (* insert cursor (mix D "latest" reads key off it) *)
  lat : Histogram.t array array array;  (* worker -> phase -> op class *)
  violations : int array;  (* per worker: reads that saw value < key *)
}

let resolve_phases config =
  let phases = if config.phases = [] then default_phases else config.phases in
  let total = List.fold_left (fun acc p -> acc +. p.ph_weight) 0.0 phases in
  (* Share Zipf tables between phases with the same effective theta: the
     zeta precomputation is O(keys). *)
  let tables = Hashtbl.create 4 in
  let zipf_for theta =
    match Hashtbl.find_opt tables theta with
    | Some z -> z
    | None ->
        let z = Zipf.make ~n:config.keys ~theta in
        Hashtbl.add tables theta z;
        z
  in
  let acc = ref 0.0 in
  Array.of_list
    (List.map
       (fun p ->
         acc := !acc +. (p.ph_weight /. total);
         let theta = Option.value p.ph_theta ~default:config.theta in
         {
           rp_phase = p;
           rp_until = !acc;
           rp_theta = theta;
           rp_mix = Option.value p.ph_mix ~default:config.mix;
           rp_zipf = zipf_for theta;
           rp_shift_keys = int_of_float (p.ph_shift *. float_of_int config.keys);
         })
       phases)

let setup system ~strategy config =
  if config.keys <= 0 then invalid_arg "Ycsb.setup: keys";
  if config.partitions <= 0 || config.partitions > config.keys then
    invalid_arg "Ycsb.setup: partitions";
  if config.scan_len <= 0 then invalid_arg "Ycsb.setup: scan_len";
  let sites =
    List.init config.partitions (fun i ->
        (Printf.sprintf "ycsb-p%d" i, Printf.sprintf "ycsb.range%d.anchor" i))
  in
  let parts = Alloc.partitions_for system ~strategy sites in
  let part_array = Array.of_list parts in
  let cells =
    Array.init config.keys (fun k ->
        let p = part_array.(k * config.partitions / config.keys) in
        Partition.tvar p k)
  in
  let resolved = resolve_phases config in
  {
    system;
    config;
    parts;
    cells;
    resolved;
    head = Atomic.make 0;
    lat =
      Array.init config.max_workers (fun _ ->
          Array.init (Array.length resolved) (fun _ ->
              Array.init op_count (fun _ -> Histogram.create ())));
    violations = Array.make config.max_workers 0;
  }

let phase_index t progress =
  let n = Array.length t.resolved in
  let rec find i = if i >= n - 1 then n - 1 else if progress < t.resolved.(i).rp_until then i else find (i + 1) in
  find 0

(* Latency clock: virtual cycles inside a simulation, wall nanoseconds on a
   real domain.  The branch is per call, but [Sim.in_simulation] is a flag
   read, far below the cost of the transaction being timed. *)
let clock () =
  if Sim.in_simulation () then Sim.now ()
  else int_of_float (Unix.gettimeofday () *. 1e9)

let classify mix roll =
  if roll < mix.mx_read then Read
  else if roll < mix.mx_read + mix.mx_update then Update
  else if roll < mix.mx_read + mix.mx_update + mix.mx_insert then Insert
  else if roll < mix.mx_read + mix.mx_update + mix.mx_insert + mix.mx_scan then Scan
  else Rmw

let worker t (ctx : Driver.ctx) =
  let config = t.config in
  let txn = System.descriptor t.system ~worker_id:ctx.Driver.worker_id in
  System.set_retry_hook txn ctx.Driver.attempt_tick;
  let rng = ctx.Driver.rng in
  let lat = t.lat.(ctx.Driver.worker_id) in
  let keys = config.keys in
  let bad = ref 0 in
  let operations = ref 0 in
  while not (ctx.Driver.should_stop ()) do
    let pi = phase_index t (ctx.Driver.progress ()) in
    let rp = t.resolved.(pi) in
    let cls = classify rp.rp_mix (Rng.int rng 100) in
    let rank = Zipf.sample rp.rp_zipf rng in
    (* Hot-set rotation: the phase re-maps rank r to key (r + shift) mod
       keys, which marches the Zipf head into a different partition's key
       range mid-run. *)
    let key =
      let k = rank + rp.rp_shift_keys in
      if k >= keys then k - keys else k
    in
    let t0 = clock () in
    (match cls with
    | Read ->
        (* In insert-bearing mixes (YCSB D) reads follow the insert head:
           "read latest", skew towards the most recent writes. *)
        let k =
          if rp.rp_mix.mx_insert > 0 then begin
            let head = Atomic.get t.head in
            if head = 0 then key else (((head - 1 - rank) mod keys) + keys) mod keys
          end
          else key
        in
        let v = System.atomically txn (fun th -> System.read th t.cells.(k)) in
        if v < k then incr bad
    | Update -> System.atomically txn (fun th -> System.write th t.cells.(key) key)
    | Insert ->
        let k = Atomic.fetch_and_add t.head 1 mod keys in
        System.atomically txn (fun th -> System.write th t.cells.(k) k)
    | Scan ->
        let faults =
          System.atomically txn (fun th ->
              let faults = ref 0 in
              for i = 0 to config.scan_len - 1 do
                let k = if key + i >= keys then key + i - keys else key + i in
                if System.read th t.cells.(k) < k then incr faults
              done;
              !faults)
        in
        bad := !bad + faults
    | Rmw ->
        System.atomically txn (fun th ->
            System.write th t.cells.(key) (System.read th t.cells.(key) + 1)));
    Histogram.observe lat.(pi).(op_index cls) (clock () - t0);
    incr operations
  done;
  t.violations.(ctx.Driver.worker_id) <- t.violations.(ctx.Driver.worker_id) + !bad;
  !operations

let total_violations t = Array.fold_left ( + ) 0 t.violations

let check t =
  total_violations t = 0
  && Array.for_all (fun ok -> ok)
       (Array.mapi (fun k cell -> Tvar.peek cell >= k) t.cells)

(* -- Orchestrated runs ------------------------------------------------------- *)

type phase_summary = {
  ps_name : string;
  ps_theta : float;
  ps_mix : string;
  ps_shift : float;
  ps_ops : int;
  ps_lat : Histogram.summary;
  ps_per_op : (op_class * Histogram.summary) list;
  ps_slo_compliance : float;
  ps_slo_ok : bool;
}

type report = {
  r_backend : string;
  r_workers : int;
  r_seed : int;
  r_config : config;
  r_slo_spec : string;
  r_result : Driver.result;
  r_phases : phase_summary list;
  r_modes : (string * string) list;
  r_verified : bool;
}

let run ?(progress = fun (_ : string) -> ()) ~backend ~workers ~seed config =
  (* Per-worker histograms cover every worker id the system hands out. *)
  let p =
    Workload.prepare ~workers ~strategy:Strategy.tuned (fun system ~strategy ->
        let max_workers = (System.engine system).Engine.max_workers in
        setup system ~strategy { config with max_workers = max config.max_workers max_workers })
  in
  let state = p.state and tuner = Option.get p.tuner in
  let config = state.config in
  let backend_name, mode =
    match backend with
    | `Sim cycles -> ("sim", Driver.default_sim ~cycles ())
    | `Domains seconds -> ("domains", Driver.Domains { seconds })
  in
  let threshold =
    match backend with `Sim _ -> config.slo_threshold_sim | `Domains _ -> config.slo_threshold_wall
  in
  progress
    (Printf.sprintf "ycsb %s: %d keys x %d partitions, %d workers, phases %s" backend_name
       config.keys config.partitions workers
       (phases_to_string config.phases));
  let result = Driver.run ~tuner ~seed ~mode ~workers (worker state) in
  let resolved = state.resolved in
  (* Merge the per-worker matrices (single-writer during the run; the
     workers have joined by now). *)
  let phase_hist pi =
    let all = Histogram.create () in
    let per_op = Array.init op_count (fun _ -> Histogram.create ()) in
    Array.iter
      (fun worker_hists ->
        Array.iteri
          (fun oi h ->
            Histogram.merge_into ~dst:per_op.(oi) h;
            Histogram.merge_into ~dst:all h)
          worker_hists.(pi))
      state.lat;
    (all, per_op)
  in
  let slo_spec =
    {
      Slo.sp_name = Printf.sprintf "op_p%g" config.slo_quantile;
      sp_source = "op";
      sp_quantile = config.slo_quantile;
      sp_threshold = threshold;
    }
  in
  let phases =
    List.mapi
      (fun pi rp ->
        let all, per_op = phase_hist pi in
        (* One SLO window per phase over the merged histogram: compliance
           via the same conservative rounding the metrics plane uses. *)
        let slo = Slo.create () in
        let _obj = Slo.add slo slo_spec ~source:(fun () -> all) in
        Slo.evaluate slo;
        let status = List.hd (Slo.statuses slo) in
        {
          ps_name = rp.rp_phase.ph_name;
          ps_theta = rp.rp_theta;
          ps_mix = mix_to_string rp.rp_mix;
          ps_shift = rp.rp_phase.ph_shift;
          ps_ops = Histogram.count all;
          ps_lat = Histogram.summary all;
          ps_per_op =
            List.filter_map
              (fun cls ->
                let h = per_op.(op_index cls) in
                if Histogram.count h = 0 then None else Some (cls, Histogram.summary h))
              op_classes;
          ps_slo_compliance = status.Slo.st_window_compliance;
          ps_slo_ok = status.Slo.st_window_ok;
        })
      (Array.to_list resolved)
  in
  {
    r_backend = backend_name;
    r_workers = workers;
    r_seed = seed;
    r_config = config;
    r_slo_spec = Slo.spec_to_string slo_spec;
    r_result = result;
    r_phases = phases;
    r_modes =
      List.map
        (fun p -> (Partition.name p, Mode.to_string (Partition.mode p)))
        state.parts;
    r_verified = check state;
  }

(* -- Acceptance checks ------------------------------------------------------- *)

type verdict = [ `Passed | `Failed of string ]

let check_store report =
  if report.r_verified then `Passed
  else `Failed "store invariant violated: a read observed a value below its key floor"

let check_phases report =
  match List.find_opt (fun p -> p.ps_ops = 0) report.r_phases with
  | Some p -> `Failed (Printf.sprintf "phase %S completed no operations" p.ps_name)
  | None -> `Passed

let check_latencies report =
  let total_hist = List.fold_left (fun acc p -> acc + p.ps_lat.Histogram.h_count) 0 report.r_phases in
  if total_hist <> report.r_result.Driver.total_ops then
    `Failed
      (Printf.sprintf "latency histograms hold %d observations, driver counted %d ops" total_hist
         report.r_result.Driver.total_ops)
  else `Passed

let checks report =
  [
    ("store_invariant", check_store report);
    ("all_phases_ran", check_phases report);
    ("latencies_recorded", check_latencies report);
  ]

(* -- Reports ----------------------------------------------------------------- *)

let to_table report =
  let unit = match report.r_backend with "sim" -> "cyc" | _ -> "ns" in
  let table =
    Table.create
      ~title:
        (Printf.sprintf "Y1 (%s): %d keys x %d partitions, %d workers, θ=%g, mix %s"
           report.r_backend report.r_config.keys report.r_config.partitions report.r_workers
           report.r_config.theta (mix_to_string report.r_config.mix))
      ~header:
        [
          "phase"; "θ"; "mix"; "ops";
          "p50(" ^ unit ^ ")"; "p95(" ^ unit ^ ")"; "p99(" ^ unit ^ ")";
          "slo%"; "slo";
        ]
  in
  List.iter
    (fun p ->
      Table.add_row table
        [
          p.ps_name;
          Printf.sprintf "%g" p.ps_theta;
          p.ps_mix;
          string_of_int p.ps_ops;
          string_of_int p.ps_lat.Histogram.h_p50;
          string_of_int p.ps_lat.Histogram.h_p95;
          string_of_int p.ps_lat.Histogram.h_p99;
          Printf.sprintf "%.2f" (100.0 *. p.ps_slo_compliance);
          (if p.ps_slo_ok then "ok" else "VIOLATED");
        ])
    report.r_phases;
  table

let summary_json (s : Histogram.summary) =
  Json.Obj
    [
      ("count", Json.Int s.Histogram.h_count);
      ("mean", Json.Float s.Histogram.h_mean);
      ("max", Json.Int s.Histogram.h_max);
      ("p50", Json.Int s.Histogram.h_p50);
      ("p95", Json.Int s.Histogram.h_p95);
      ("p99", Json.Int s.Histogram.h_p99);
    ]

let verdict_to_json = function
  | `Passed -> Json.Obj [ ("status", Json.String "passed"); ("reason", Json.String "") ]
  | `Failed reason ->
      Json.Obj [ ("status", Json.String "failed"); ("reason", Json.String reason) ]

let phase_json p =
  Json.Obj
    [
      ("name", Json.String p.ps_name);
      ("theta", Json.Float p.ps_theta);
      ("mix", Json.String p.ps_mix);
      ("shift", Json.Float p.ps_shift);
      ("ops", Json.Int p.ps_ops);
      ("latency", summary_json p.ps_lat);
      ( "per_op",
        Json.Obj
          (List.map (fun (cls, s) -> (op_class_name cls, summary_json s)) p.ps_per_op) );
      ("slo_compliance", Json.Float p.ps_slo_compliance);
      ("slo_ok", Json.Bool p.ps_slo_ok);
    ]

let to_json report =
  let c = report.r_config in
  Json.Obj
    [
      ("experiment", Json.String "y1");
      ("workload", Json.String "ycsb: Zipf-keyed phased operation mix over the partitioned store");
      ("backend", Json.String report.r_backend);
      ( "config",
        Json.Obj
          [
            ("keys", Json.Int c.keys);
            ("partitions", Json.Int c.partitions);
            ("theta", Json.Float c.theta);
            ("mix", Json.String (mix_to_string c.mix));
            ("scan_len", Json.Int c.scan_len);
            ("phases", Json.String (phases_to_string c.phases));
            ("workers", Json.Int report.r_workers);
            ("seed", Json.Int report.r_seed);
            ("slo", Json.String report.r_slo_spec);
          ] );
      ("total_ops", Json.Int report.r_result.Driver.total_ops);
      ( "throughput",
        Json.Obj
          [
            ( (match report.r_backend with "sim" -> "ops_per_mcycle" | _ -> "ops_per_sec"),
              Json.Float report.r_result.Driver.throughput );
          ] );
      ("phases", Json.List (List.map phase_json report.r_phases));
      ("final_modes", Json.Obj (List.map (fun (n, m) -> (n, Json.String m)) report.r_modes));
      ("verified", Json.Bool report.r_verified);
      ( "checks",
        Json.Obj (List.map (fun (name, v) -> (name, verdict_to_json v)) (checks report)) );
    ]
