(* One round of one workload, run in its own process: set-up, a warm-up
   with the tuner ticking, then the measured window. Every number is taken
   from outside the system: timestamps around the calls into the workload's
   public [worker], its retry hook, [Tuner.step] and [Metrics_plane.sample],
   plus the public Region_stats, Tuner and Gc counters. *)

open Partstm_util
open Partstm_stm
open Partstm_core
open Partstm_harness
module W = Partstm_workloads

let workers = 2
let tick_ns = 100_000_000
let sample_every = 64
let span_capacity = 1 lsl 18
let now () = Int64.to_int (Monotonic_clock.now ())
let workloads = [ "mixed"; "ycsb-large"; "feed"; "mixed-obs" ]

type spec = {
  workload : string;
  seed : int;
  round : int;
  warmup : float;  (** seconds *)
  window : float;  (** seconds *)
  traced : bool;
  out_dir : string;  (** where a traced round writes its Chrome trace *)
}

(* [heap_ops]: the operation count (warm-up included, all workers) at which
   the heap peak is read. The major heap keeps climbing while the workers
   run (mixed: from 8 to 100 MB over 30 s, with under 6 MB live), so the
   peak grows with the number of operations done; read at the end of a
   fixed-time round, a faster system would show a bigger heap. Each count
   is about 2 s of work at the throughput benchmark/README.md reports. *)
type instance = { worker : Driver.ctx -> int; check : unit -> bool; heap_ops : int }

(* A keyspace far larger than the CPU caches and the orec tables. *)
let ycsb_large = { W.Ycsb.default_config with keys = 1_048_576; partitions = 8 }

let instantiate name system =
  let strategy = W.Strategy.tuned in
  match name with
  | "mixed" | "mixed-obs" ->
      let t = W.Mixed.setup system ~strategy W.Mixed.default_config in
      { worker = W.Mixed.worker t; check = (fun () -> W.Mixed.check t); heap_ops = 800_000 }
  | "ycsb-large" ->
      let t = W.Ycsb.setup system ~strategy ycsb_large in
      { worker = W.Ycsb.worker t; check = (fun () -> W.Ycsb.check t); heap_ops = 3_000_000 }
  | "feed" ->
      let t = W.Feed.setup system ~strategy W.Feed.default_config in
      { worker = W.Feed.worker t; check = (fun () -> W.Feed.check t); heap_ops = 160_000 }
  | other -> invalid_arg ("unknown workload " ^ other)

(* One worker's view of the round. Created inside the worker's domain so
   two lanes never share a cache line. *)
type lane = {
  hist : Loglin.t;  (** op latency, ns, window only *)
  commit : Loglin.t;  (** traced: last attempt of each op, ns *)
  mutable last : int;  (** previous op boundary *)
  mutable attempt_start : int;
  mutable first : int;  (** first boundary in the window, -1 before *)
  mutable stop : int;
  mutable calls : int;  (** [should_stop] calls that returned false *)
  mutable inv_calls : int;  (** same, in the current [worker] invocation *)
  mutable returned : int;  (** ops the worker invocations report *)
  mutable miscounts : int;  (** invocations whose count differed from ours *)
  mutable failed : int;
  mutable failed_ns : int;
  mutable discard : bool;  (** the next gap belongs to a failed op *)
  mutable hooks : int;  (** rollbacks in the window *)
  mutable aborted_ns : int;  (** traced: time in aborted attempts *)
  mutable sampled : bool;
  mutable counts0 : int array;  (** own Region_stats stripe at [first] *)
  mutable heap_words : int;  (** top heap at this lane's share of [heap_ops], -1 before *)
  mutable error : string;
}

let make_lane () =
  {
    hist = Loglin.create ();
    commit = Loglin.create ();
    last = 0;
    attempt_start = 0;
    first = -1;
    stop = 0;
    calls = 0;
    inv_calls = 0;
    returned = 0;
    miscounts = 0;
    failed = 0;
    failed_ns = 0;
    discard = false;
    hooks = 0;
    aborted_ns = 0;
    sampled = true;
    counts0 = [||];
    heap_words = -1;
    error = "";
  }

(* A worker's own stripe, summed over partitions, in [Region_stats.fields]
   order. Exact when read by the worker itself or after it has joined. *)
let own_counts parts id =
  let snaps =
    List.map (fun p -> Region_stats.worker_snapshot (Partition.region p).Region.stats id) parts
  in
  Array.of_list
    (List.map (fun (_, get) -> List.fold_left (fun acc s -> acc + get s) 0 snaps) Region_stats.fields)

let count_index name =
  let rec find i = function
    | [] -> invalid_arg name
    | (n, _) :: rest -> if n = name then i else find (i + 1) rest
  in
  find 0 Region_stats.fields

type result = {
  spec : spec;
  calib_ms : float;  (** median of the calibration loops around the round *)
  touch_ms : float;  (** first touch of fresh memory, just before set-up *)
  clock_ns : float;
  setup_s : float;
  window_s : float;
  run_s : float;  (** warm-up + window, as the workers ran *)
  lanes : lane array;
  counts : int array array;  (** per lane, window only *)
  check_ok : bool;
  heap_mb : float;
  heap_at_ops : bool;  (** false: [heap_ops] was not reached, [heap_mb] is the final peak *)
  minor_words : float;  (** whole run, all domains *)
  minor_gcs : int;
  major_gcs : int;
  ticks : int;  (** in the window *)
  switches : int;
  switch_ns : int;
  step : Loglin.t;
  sample : Loglin.t;
  self : (string * int * int) list;  (** traced: span name, count, self ns *)
  nesting_ok : bool;
  dropped_spans : int;
  modes : (string * string) list;
}

(* A fixed integer loop, run on two domains at once like the workers: the
   time of the slower copy shows how fast the host runs right now. On a
   busy host the two CPUs can differ, and a single copy measures only the
   one it lands on. In eight runs of each workload, scaling by the
   two-domain loop spread less from run to run than scaling by a single
   copy for 11 of the 12 (workload, metric) pairs of throughput, p50 and
   p99 (ycsb-large p99: 11% against 15%). Three runs. *)
let calibrate () =
  let once () =
    let t = now () in
    let x = ref 1 in
    for _ = 1 to 20_000_000 do
      x := ((!x * 1103515245) + 12345) land 0xFFFFFF
    done;
    ignore (Sys.opaque_identity !x);
    float_of_int (now () - t) /. 1e6
  in
  List.init 3 (fun _ ->
      let other = Domain.spawn once in
      let mine = once () in
      Float.max mine (Domain.join other))

(* The time to write one byte into each 4 KiB page of a fresh 32 MiB block
   (above glibc's largest mmap threshold, so the pages are new to the
   process): what first-touch page faults cost on the host right now. Set-up
   time follows it and not the integer loop: over 16 fresh processes each
   of mixed and feed, set-up time divided by this spread about half as
   much as raw set-up time (log standard deviation 0.10 against 0.19 for
   mixed, 0.09 against 0.15 for feed), while the integer loop barely moved.
   The block is a Bigarray, outside the OCaml heap, so it never shows in
   [top_heap_words]; a full major GC then frees it, so it does not pace the
   GC during set-up. *)
let touch () =
  let t = now () in
  let b = Bigarray.(Array1.create char c_layout (32 lsl 20)) in
  let i = ref 0 in
  while !i < Bigarray.Array1.dim b do
    Bigarray.Array1.unsafe_set b !i 'x';
    i := !i + 4096
  done;
  ignore (Sys.opaque_identity b);
  let ms = float_of_int (now () - t) /. 1e6 in
  Gc.full_major ();
  ms

let median xs =
  let a = Array.of_list (List.sort compare xs) in
  let n = Array.length a in
  if n = 0 then nan else if n mod 2 = 1 then a.(n / 2) else (a.((n / 2) - 1) +. a.(n / 2)) /. 2.0

let clock_cost () =
  let n = 1_000_000 in
  let t = now () in
  let acc = ref 0 in
  for _ = 1 to n do
    acc := !acc lxor now ()
  done;
  ignore (Sys.opaque_identity !acc);
  float_of_int (now () - t) /. float_of_int n

let run_lane ~spec ~inst ~parts ~warm_end ~window_end ~rng id =
  let lane = make_lane () in
  let spans = Spans.create (if spec.traced then span_capacity else 0) in
  let traced = spec.traced in
  let heap_at = inst.heap_ops / workers in
  let window_ns = float_of_int (window_end - warm_end) in
  let should_stop () =
    let t = now () in
    if lane.first >= 0 then begin
      let d = t - lane.last in
      if lane.discard then begin
        lane.discard <- false;
        lane.failed_ns <- lane.failed_ns + d
      end
      else begin
        Loglin.observe lane.hist d;
        if traced then begin
          Loglin.observe lane.commit (t - lane.attempt_start);
          if lane.sampled then begin
            Spans.record spans Spans.op lane.last t;
            Spans.record spans Spans.commit lane.attempt_start t
          end;
          lane.sampled <- Loglin.count lane.hist land (sample_every - 1) = 0
        end
      end
    end
    else if t >= warm_end then begin
      lane.first <- t;
      lane.counts0 <- own_counts parts id
    end;
    lane.last <- t;
    lane.attempt_start <- t;
    if t >= window_end then begin
      lane.stop <- t;
      true
    end
    else begin
      lane.calls <- lane.calls + 1;
      if lane.calls = heap_at then lane.heap_words <- (Gc.quick_stat ()).Gc.top_heap_words;
      lane.inv_calls <- lane.inv_calls + 1;
      false
    end
  in
  let attempt_tick () =
    if lane.first >= 0 then begin
      lane.hooks <- lane.hooks + 1;
      if traced then begin
        let t = now () in
        lane.aborted_ns <- lane.aborted_ns + (t - lane.attempt_start);
        if lane.sampled then Spans.record spans Spans.aborted lane.attempt_start t;
        lane.attempt_start <- t
      end
    end
  in
  let progress () =
    let t = now () in
    if t < warm_end then 0.0 else Float.min 1.0 (float_of_int (t - warm_end) /. window_ns)
  in
  let ctx = { Driver.worker_id = id; rng; should_stop; progress; attempt_tick } in
  (* An exception escaping [worker] fails the op in flight; the worker is
     restarted with the same ctx until the window ends. *)
  let rec go () =
    lane.inv_calls <- 0;
    match inst.worker ctx with
    | n ->
        lane.returned <- lane.returned + n;
        if n <> lane.inv_calls then lane.miscounts <- lane.miscounts + 1
    | exception e ->
        lane.failed <- lane.failed + 1;
        lane.returned <- lane.returned + max 0 (lane.inv_calls - 1);
        lane.error <- Printexc.to_string e;
        lane.discard <- lane.first >= 0;
        let t = now () in
        if t < window_end then go ()
        else begin
          if lane.discard then lane.failed_ns <- lane.failed_ns + (t - lane.last);
          lane.stop <- t;
          lane.last <- t
        end
  in
  go ();
  (lane, spans)

let ns seconds = int_of_float (seconds *. 1e9)

let run spec =
  let calib_before = calibrate () in
  let clock_ns = clock_cost () in
  let main = Spans.create (if spec.traced then 1 lsl 12 else 0) in
  let touch_ms = touch () in
  Printf.eprintf "%s round %d host.calib_ms %.3f host.touch_ms %.3f\n%!" spec.workload spec.round
    (median calib_before) touch_ms;
  let r0 = now () in
  let system = System.create () in
  let inst = instantiate spec.workload system in
  let r1 = now () in
  Spans.record main Spans.setup r0 r1;
  let registry = System.registry system in
  let parts = Registry.partitions registry in
  let tuner = System.tuner system in
  if spec.traced then Tuner.on_event tuner (fun _ -> Spans.instant main Spans.tuner_switch (now ()));
  let plane =
    if spec.workload = "mixed-obs" then begin
      let p = Metrics_plane.create registry in
      Metrics_plane.attach p;
      Metrics_plane.set_clock p now;
      Some p
    end
    else None
  in
  let gc0 = Gc.quick_stat () in
  let t0 = now () in
  let warm_end = t0 + ns spec.warmup in
  let window_end = warm_end + ns spec.window in
  let master = Rng.split (Rng.make spec.seed) ~index:spec.round in
  let domains =
    List.init workers (fun id ->
        let rng = Rng.split master ~index:id in
        Domain.spawn (fun () -> run_lane ~spec ~inst ~parts ~warm_end ~window_end ~rng id))
  in
  let ticks = ref 0 and switches = ref 0 and switch_ns = ref 0 in
  let step = Loglin.create () and sample = Loglin.create () in
  let tick s =
    let before = Tuner.switches tuner in
    Tuner.step tuner;
    let e = now () in
    let in_window = s >= warm_end in
    if in_window then begin
      incr ticks;
      Loglin.observe step (e - s);
      let applied = Tuner.switches tuner - before in
      if applied > 0 then begin
        switches := !switches + applied;
        switch_ns := !switch_ns + (e - s)
      end
    end;
    Spans.record main Spans.tuner_step s e;
    Option.iter
      (fun p ->
        let s = now () in
        Metrics_plane.sample p;
        let e = now () in
        if in_window then Loglin.observe sample (e - s);
        Spans.record main Spans.plane_sample s e)
      plane
  in
  let window_mark = ref (-1) in
  let next = ref (t0 + tick_ns) in
  let rec loop () =
    let t = now () in
    if t < window_end then begin
      if !window_mark < 0 && t >= warm_end then window_mark := t;
      if t < !next then Unix.sleepf (float_of_int (min !next window_end - t) /. 1e9)
      else begin
        tick t;
        while !next <= now () do
          next := !next + tick_ns
        done
      end;
      loop ()
    end
  in
  loop ();
  let joined = List.map Domain.join domains in
  let t_end = now () in
  let mark = if !window_mark < 0 then warm_end else !window_mark in
  Spans.record main Spans.round r0 t_end;
  Spans.record main Spans.warmup t0 mark;
  Spans.record main Spans.window mark t_end;
  let gc1 = Gc.quick_stat () in
  let lanes = Array.of_list (List.map fst joined) in
  let counts =
    Array.mapi
      (fun id lane ->
        let c1 = own_counts parts id in
        if lane.counts0 = [||] then Array.map (fun _ -> 0) c1
        else Array.mapi (fun i v -> v - lane.counts0.(i)) c1)
      lanes
  in
  let all_spans = main :: List.map snd joined in
  let count = Array.make (Array.length Spans.names) 0 and self = Array.make (Array.length Spans.names) 0 in
  let nesting_ok =
    List.for_all
      (fun l ->
        let before = Array.fold_left ( + ) 0 self in
        let roots = Spans.add_self_times l ~count ~self in
        roots = Array.fold_left ( + ) 0 self - before)
      all_spans
  in
  if spec.traced then
    Spans.write_chrome
      (Filename.concat spec.out_dir ("trace-" ^ spec.workload ^ ".json"))
      ~origin:r0
      ((0, "main", main) :: List.mapi (fun i (_, l) -> (i + 1, Printf.sprintf "worker-%d" i, l)) joined);
  let check_ok = inst.check () in
  let calib_after = calibrate () in
  let heap_at_ops = Array.for_all (fun l -> l.heap_words >= 0) lanes in
  let heap_words =
    if heap_at_ops then Array.fold_left (fun acc l -> max acc l.heap_words) 0 lanes
    else gc1.Gc.top_heap_words
  in
  {
    spec;
    calib_ms = median (calib_before @ calib_after);
    touch_ms;
    clock_ns;
    setup_s = float_of_int (r1 - r0) /. 1e9;
    window_s = spec.window;
    run_s = float_of_int (t_end - t0) /. 1e9;
    lanes;
    counts;
    check_ok;
    heap_mb = float_of_int heap_words *. float_of_int (Sys.word_size / 8) /. 1e6;
    heap_at_ops;
    minor_words = gc1.Gc.minor_words -. gc0.Gc.minor_words;
    minor_gcs = gc1.Gc.minor_collections - gc0.Gc.minor_collections;
    major_gcs = gc1.Gc.major_collections - gc0.Gc.major_collections;
    ticks = !ticks;
    switches = !switches;
    switch_ns = !switch_ns;
    step;
    sample;
    self =
      List.filter
        (fun (_, c, _) -> c > 0)
        (Array.to_list (Array.mapi (fun n name -> (name, count.(n), self.(n))) Spans.names));
    nesting_ok;
    dropped_spans =
      (if spec.traced then List.fold_left (fun acc (l : Spans.lane) -> acc + l.dropped) 0 all_spans
       else 0);
    modes = List.map (fun p -> (Partition.name p, Mode.to_string (Partition.mode p))) parts;
  }
