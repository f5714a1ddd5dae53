(* Tests for the R-Y1 production-traffic stack (DESIGN.md §11): the
   Zipf(θ) generator's statistics, determinism and per-worker stream
   independence; the simulated YCSB report's checks, mix and phase labels
   and byte-determinism (the property the CI regression gate relies on);
   and the social-feed application's tuner divergence + explain trail. *)

open Partstm_util
open Partstm_workloads

let check = Alcotest.check

(* -- Zipf generator ---------------------------------------------------------- *)

let sample_counts ~n ~theta ~seed ~draws =
  let z = Zipf.make ~n ~theta in
  let rng = Rng.make seed in
  let counts = Array.make n 0 in
  for _ = 1 to draws do
    let r = Zipf.sample z rng in
    if r < 0 || r >= n then Alcotest.failf "rank %d out of [0, %d)" r n;
    counts.(r) <- counts.(r) + 1
  done;
  (z, counts)

(* Rank 0 must be sampled more often than rank 1, and so on down the head
   of the distribution.  At θ = 0.99 consecutive head ranks differ by
   thousands of draws out of 200k while sampling noise is ~√count, so a
   strict ordering over the first eight ranks cannot flake. *)
let test_frequency_rank_monotonic () =
  let _, counts = sample_counts ~n:1024 ~theta:0.99 ~seed:1 ~draws:200_000 in
  for rank = 0 to 6 do
    if counts.(rank) <= counts.(rank + 1) then
      Alcotest.failf "rank %d drawn %d times, rank %d drawn %d — not monotonic" rank
        counts.(rank) (rank + 1)
        counts.(rank + 1)
  done

(* Observed top-key mass against the closed form 1/(k+1)^θ / ζ(n, θ). *)
let check_mass_against_zeta ~theta =
  let n = 1024 and draws = 200_000 in
  let z, counts = sample_counts ~n ~theta ~seed:2 ~draws in
  let zeta = Zipf.zeta ~n ~theta in
  check (Alcotest.float 1e-9) "mass matches zeta closed form"
    (1.0 /. zeta) (Zipf.mass z ~rank:0);
  let expect_top = float_of_int draws *. Zipf.mass z ~rank:0 in
  let rel = Float.abs (float_of_int counts.(0) -. expect_top) /. expect_top in
  if rel > 0.10 then
    Alcotest.failf "θ=%.2f: rank-0 drawn %d times, closed form expects %.0f (%.1f%% off)"
      theta counts.(0) expect_top (100.0 *. rel);
  (* Cumulative head mass has even less noise: ±5% over the top 16. *)
  let head_expect =
    let acc = ref 0.0 in
    for rank = 0 to 15 do
      acc := !acc +. Zipf.mass z ~rank
    done;
    float_of_int draws *. !acc
  in
  let head_got = ref 0 in
  for rank = 0 to 15 do
    head_got := !head_got + counts.(rank)
  done;
  let rel = Float.abs (float_of_int !head_got -. head_expect) /. head_expect in
  if rel > 0.05 then
    Alcotest.failf "θ=%.2f: top-16 mass %d vs expected %.0f (%.1f%% off)" theta !head_got
      head_expect (100.0 *. rel)

let test_mass_theta_050 () = check_mass_against_zeta ~theta:0.5
let test_mass_theta_099 () = check_mass_against_zeta ~theta:0.99

let test_theta_zero_is_uniform () =
  let n = 64 in
  let z, counts = sample_counts ~n ~theta:0.0 ~seed:3 ~draws:128_000 in
  check (Alcotest.float 1e-9) "uniform mass" (1.0 /. float_of_int n)
    (Zipf.mass z ~rank:17);
  Array.iteri
    (fun rank c ->
      (* 2000 expected per rank; ±20% is > 8 standard deviations out. *)
      if c < 1600 || c > 2400 then
        Alcotest.failf "θ=0: rank %d drawn %d times, expected ~2000" rank c)
    counts

let test_determinism () =
  let z = Zipf.make ~n:4096 ~theta:0.99 in
  let a = Rng.make 77 and b = Rng.make 77 in
  for i = 1 to 1_000 do
    let ra = Zipf.sample z a and rb = Zipf.sample z b in
    if ra <> rb then Alcotest.failf "draw %d diverged: %d vs %d" i ra rb
  done

(* Per-worker streams: distinct split indices give decorrelated key
   sequences, and deriving a child must not advance the parent. *)
let test_stream_independence () =
  let z = Zipf.make ~n:4096 ~theta:0.99 in
  let parent = Rng.make 5 in
  let w0 = Rng.split parent ~index:0 and w1 = Rng.split parent ~index:1 in
  let draws rng = List.init 64 (fun _ -> Zipf.sample z rng) in
  let s0 = draws w0 and s1 = draws w1 in
  if s0 = s1 then Alcotest.fail "worker streams 0 and 1 produced identical sequences";
  check Alcotest.(list int) "same index re-derives the same stream" s0
    (draws (Rng.split parent ~index:0));
  let untouched = Rng.make 5 in
  check Alcotest.(list int) "split does not advance the parent"
    (List.init 16 (fun _ -> Rng.bits untouched))
    (List.init 16 (fun _ -> Rng.bits parent))

let test_make_validation () =
  Alcotest.check_raises "theta = 1 rejected"
    (Invalid_argument "Zipf.make: theta must be in [0, 1)") (fun () ->
      ignore (Zipf.make ~n:10 ~theta:1.0));
  Alcotest.check_raises "n = 0 rejected"
    (Invalid_argument "Zipf.make: n must be positive") (fun () ->
      ignore (Zipf.make ~n:0 ~theta:0.5))

(* -- YCSB simulated run ------------------------------------------------------- *)

let run_quick_ycsb () =
  Ycsb.run
    ~backend:(`Sim (Ycsb.bench_sim_cycles ~quick:true))
    ~workers:(Ycsb.bench_workers ~quick:true)
    ~seed:42 Ycsb.quick_config

let test_ycsb_checks_pass () =
  let report = run_quick_ycsb () in
  List.iter
    (fun (name, verdict) ->
      match verdict with
      | `Passed -> ()
      | `Failed reason -> Alcotest.failf "ycsb check %s failed: %s" name reason)
    (Ycsb.checks report);
  check Alcotest.int "every configured phase reported"
    (List.length Ycsb.quick_config.Ycsb.phases)
    (List.length report.Ycsb.r_phases);
  List.iter
    (fun ps ->
      if ps.Ycsb.ps_ops <= 0 then Alcotest.failf "phase %s ran no ops" ps.Ycsb.ps_name;
      if ps.Ycsb.ps_lat.Histogram.h_count <> ps.Ycsb.ps_ops then
        Alcotest.failf "phase %s: %d ops but %d latencies" ps.Ycsb.ps_name ps.Ycsb.ps_ops
          ps.Ycsb.ps_lat.Histogram.h_count)
    report.Ycsb.r_phases;
  (* The artifact names each phase's mix by its text label: a standard mix
     by its letter, a custom one by its nonzero percents. *)
  check Alcotest.(list string) "per-phase mixes in the report" [ "b"; "a"; "a" ]
    (List.map (fun ps -> ps.Ycsb.ps_mix) report.Ycsb.r_phases);
  check Alcotest.int "mix b is 95% read" 95 Ycsb.mix_b.Ycsb.mx_read;
  check Alcotest.string "custom mix renders its nonzero percents" "r80,u10,m10"
    (Ycsb.mix_to_string { Ycsb.mix_a with Ycsb.mx_read = 80; mx_update = 10; mx_rmw = 10 });
  check Alcotest.string "default schedule"
    "warm:0.25:theta=0.5:mix=b,peak:0.5,hot-shift:0.25:shift=0.37"
    (Ycsb.phases_to_string Ycsb.default_phases)

(* The property the CI gate's byte-exact policy rests on: same build, same
   config, same seed ⇒ the identical artifact, histogram buckets included. *)
let test_ycsb_sim_byte_deterministic () =
  let a = run_quick_ycsb () and b = run_quick_ycsb () in
  check Alcotest.string "sim artifact byte-identical across runs"
    (Json.to_string (Ycsb.to_json a))
    (Json.to_string (Ycsb.to_json b))

(* On domains, latencies come from a monotonic nanosecond clock.  The
   wall clock steps under NTP and resolves only microseconds: it timed
   most sub-microsecond reads as 0, which put the read p50 in bucket 0. *)
let test_ycsb_domains_latency_clock () =
  let config =
    {
      Ycsb.quick_config with
      Ycsb.mix = Ycsb.mix_c;
      phases =
        [ { Ycsb.ph_name = "all"; ph_weight = 1.0; ph_theta = None; ph_mix = None; ph_shift = 0.0 } ];
    }
  in
  let report = Ycsb.run ~backend:(`Domains 0.2) ~workers:1 ~seed:7 config in
  let reads =
    match report.Ycsb.r_phases with
    | [ ps ] -> List.assoc Ycsb.Read ps.Ycsb.ps_per_op
    | _ -> Alcotest.fail "expected one phase"
  in
  check Alcotest.bool "reads ran" true (reads.Histogram.h_count > 0);
  check Alcotest.bool
    (Printf.sprintf "read p50 bound %d ns is above 0" reads.Histogram.h_p50)
    true (reads.Histogram.h_p50 > 0)

(* -- Social-feed application -------------------------------------------------- *)

let run_quick_feed () =
  Feed.run
    ~backend:(`Sim (Feed.bench_sim_cycles ~quick:true))
    ~workers:Feed.bench_workers ~seed:42 Feed.quick_config

let test_feed_diverges_and_explains () =
  let report = run_quick_feed () in
  List.iter
    (fun (name, verdict) ->
      match verdict with
      | `Passed -> ()
      | `Failed reason -> Alcotest.failf "feed check %s failed: %s" name reason)
    (Feed.checks report);
  if Feed.distinct_final_modes report < 2 then
    Alcotest.failf "tuner did not specialise: %d distinct final mode(s)"
      (Feed.distinct_final_modes report);
  if report.Feed.r_explain = [] then Alcotest.fail "no tuner switches recorded";
  List.iter
    (fun e ->
      if e.Feed.ex_triggered = [] then
        Alcotest.failf "switch %s → %s on %s carries no triggers" e.Feed.ex_from
          e.Feed.ex_to e.Feed.ex_partition)
    report.Feed.r_explain;
  check Alcotest.bool "invariants held" true report.Feed.r_verified

let test_feed_sim_byte_deterministic () =
  let a = run_quick_feed () and b = run_quick_feed () in
  check Alcotest.string "feed artifact byte-identical across runs"
    (Json.to_string (Feed.to_json a))
    (Json.to_string (Feed.to_json b))

let () =
  Alcotest.run "ycsb"
    [
      ( "zipf",
        [
          Alcotest.test_case "frequency-rank monotonic" `Quick
            test_frequency_rank_monotonic;
          Alcotest.test_case "top-key mass vs zeta, θ=0.5" `Quick test_mass_theta_050;
          Alcotest.test_case "top-key mass vs zeta, θ=0.99" `Quick test_mass_theta_099;
          Alcotest.test_case "θ=0 degenerates to uniform" `Quick test_theta_zero_is_uniform;
          Alcotest.test_case "deterministic under a fixed seed" `Quick test_determinism;
          Alcotest.test_case "per-worker stream independence" `Quick
            test_stream_independence;
          Alcotest.test_case "parameter validation" `Quick test_make_validation;
        ] );
      ( "ycsb-sim",
        [
          Alcotest.test_case "acceptance checks pass" `Quick test_ycsb_checks_pass;
          Alcotest.test_case "artifact byte-deterministic" `Quick
            test_ycsb_sim_byte_deterministic;
        ] );
      ( "ycsb-domains",
        [
          Alcotest.test_case "latencies on a monotonic ns clock" `Quick
            test_ycsb_domains_latency_clock;
        ] );
      ( "feed",
        [
          Alcotest.test_case "tuner diverges with explain trail" `Quick
            test_feed_diverges_and_explains;
          Alcotest.test_case "artifact byte-deterministic" `Quick
            test_feed_sim_byte_deterministic;
        ] );
    ]
