(* Unit and property tests for partstm_util. *)

open Partstm_util

let check = Alcotest.check
let qtest ?(count = 200) name gen law =
  QCheck_alcotest.to_alcotest (QCheck2.Test.make ~count ~name gen law)

(* -- Bits ------------------------------------------------------------------ *)

let test_is_power_of_two () =
  List.iter (fun n -> check Alcotest.bool (string_of_int n) true (Bits.is_power_of_two n))
    [ 1; 2; 4; 8; 1024; 1 lsl 40 ];
  List.iter (fun n -> check Alcotest.bool (string_of_int n) false (Bits.is_power_of_two n))
    [ 0; -1; 3; 6; 12; 1023 ]

let test_ceil_power_of_two () =
  List.iter
    (fun (input, expected) -> check Alcotest.int (string_of_int input) expected (Bits.ceil_power_of_two input))
    [ (1, 1); (2, 2); (3, 4); (5, 8); (17, 32); (1024, 1024); (1025, 2048) ];
  (* Exact powers of two are fixed points, up to the largest representable
     one. *)
  List.iter
    (fun n -> check Alcotest.int (string_of_int n) n (Bits.ceil_power_of_two n))
    [ 1; 2; 64; 1 lsl 40; Bits.max_power_of_two ]

let test_ceil_power_of_two_guards () =
  (* n <= 0 used to loop forever ([n land -n] = 0 never advances 0), and
     values past 2^61 wrapped negative mid-rounding; both must raise. *)
  List.iter
    (fun n ->
      Alcotest.check_raises (string_of_int n) (Invalid_argument "Bits.ceil_power_of_two")
        (fun () -> ignore (Bits.ceil_power_of_two n)))
    [ 0; -1; -1024; min_int ];
  List.iter
    (fun n ->
      Alcotest.check_raises "overflow" (Invalid_argument "Bits.ceil_power_of_two: overflow")
        (fun () -> ignore (Bits.ceil_power_of_two n)))
    [ Bits.max_power_of_two + 1; max_int ]

let test_log2 () =
  check Alcotest.int "floor 1" 0 (Bits.floor_log2 1);
  check Alcotest.int "floor 2" 1 (Bits.floor_log2 2);
  check Alcotest.int "floor 3" 1 (Bits.floor_log2 3);
  check Alcotest.int "floor 1024" 10 (Bits.floor_log2 1024);
  check Alcotest.int "ceil 1" 0 (Bits.ceil_log2 1);
  check Alcotest.int "ceil 3" 2 (Bits.ceil_log2 3);
  check Alcotest.int "ceil 1025" 11 (Bits.ceil_log2 1025);
  Alcotest.check_raises "floor_log2 0" (Invalid_argument "Bits.floor_log2") (fun () ->
      ignore (Bits.floor_log2 0))

let test_popcount () =
  List.iter
    (fun (input, expected) -> check Alcotest.int (string_of_int input) expected (Bits.popcount input))
    [ (0, 0); (1, 1); (3, 2); (255, 8); (1 lsl 50, 1) ]

let prop_floor_log2_of_power =
  qtest "floor_log2 (2^k) = k"
    QCheck2.Gen.(int_range 0 61)
    (fun k -> Bits.floor_log2 (1 lsl k) = k)

let prop_hash_to_slot_in_range =
  qtest "hash_to_slot lands in range"
    QCheck2.Gen.(pair (int_range 0 14) int)
    (fun (g, x) ->
      let slots = 1 lsl g in
      let slot = Bits.hash_to_slot ~slots x in
      slot >= 0 && slot < slots)

let prop_mix_int_deterministic =
  qtest "mix_int is deterministic and non-negative" QCheck2.Gen.int (fun x ->
      Bits.mix_int x = Bits.mix_int x && Bits.mix_int x >= 0)

(* -- Rng ------------------------------------------------------------------- *)

let test_rng_deterministic () =
  let a = Rng.make 42 and b = Rng.make 42 in
  for _ = 1 to 100 do
    check Alcotest.int "same stream" (Rng.bits a) (Rng.bits b)
  done

let test_rng_split_independent () =
  let parent = Rng.make 7 in
  let c1 = Rng.split parent ~index:0 and c2 = Rng.split parent ~index:1 in
  let same = ref 0 in
  for _ = 1 to 64 do
    if Rng.bits c1 = Rng.bits c2 then incr same
  done;
  check Alcotest.bool "children differ" true (!same < 4)

let prop_rng_int_bounds =
  qtest "int t bound in [0, bound)"
    QCheck2.Gen.(pair (int_range 1 1_000_000) (int_range 0 10_000))
    (fun (bound, seed) ->
      let rng = Rng.make seed in
      let v = Rng.int rng bound in
      v >= 0 && v < bound)

let prop_rng_range_bounds =
  qtest "int_in_range inclusive"
    QCheck2.Gen.(triple (int_range (-1000) 1000) (int_range 0 2000) (int_range 0 1000))
    (fun (lo, span, seed) ->
      let hi = lo + span in
      let rng = Rng.make seed in
      let v = Rng.int_in_range rng ~lo ~hi in
      v >= lo && v <= hi)

let test_rng_float_unit_interval () =
  let rng = Rng.make 3 in
  for _ = 1 to 1000 do
    let f = Rng.float rng in
    if f < 0.0 || f >= 1.0 then Alcotest.failf "float out of range: %f" f
  done

let test_rng_chance_extremes () =
  let rng = Rng.make 5 in
  for _ = 1 to 100 do
    check Alcotest.bool "0%" false (Rng.chance rng ~percent:0);
    check Alcotest.bool "100%" true (Rng.chance rng ~percent:100)
  done

let test_rng_shuffle_permutation () =
  let rng = Rng.make 11 in
  let a = Array.init 50 Fun.id in
  Rng.shuffle_in_place rng a;
  let sorted = Array.copy a in
  Array.sort compare sorted;
  check Alcotest.(array int) "same multiset" (Array.init 50 Fun.id) sorted

(* Golden streams: these values were drawn from the four-[int64]-field
   implementation this one replaced, so the byte-state generator is proven
   to produce bit-identical streams (and every seeded schedule built on
   them stays the same).  Per seed: bits, bits, int 1000, int 64,
   int (2/3 max_int) (rejection path), the IEEE bits of float, then bits
   and int 7 of [split ~index:3], then bits of the parent again. *)
let rng_golden =
  [
    ( 1,
      [ 3743247123249303749; 376989097743764714; 92; 39; 2648436617965840162;
        4589783768001017104; 3741965832250173116; 1; 2419925914553018525 ] );
    ( 42,
      [ 1546998764402558742; 2379265674537155198; 201; 33; 364128774783586872;
        4604653724871904443; 3118035142161328611; 4; 1844830170035650695 ] );
    ( 0x7C0FFEE,
      [ 2361860011479534314; 2632710376044137913; 215; 63; 2851013895513824603;
        4606785856967930831; 1346655071741489586; 2; 1277150421779591374 ] );
  ]

let test_rng_golden () =
  List.iter
    (fun (seed, expected) ->
      let r = Rng.make seed in
      let b1 = Rng.bits r in
      let b2 = Rng.bits r in
      let i1 = Rng.int r 1000 in
      let i2 = Rng.int r 64 in
      let i3 = Rng.int r (max_int / 3 * 2) in
      let f = Rng.float r in
      let c = Rng.split r ~index:3 in
      let s1 = Rng.bits c in
      let s2 = Rng.int c 7 in
      let after = Rng.bits r in
      check Alcotest.(list int)
        (Printf.sprintf "seed %d" seed)
        expected
        [ b1; b2; i1; i2; i3; Int64.to_int (Int64.bits_of_float f); s1; s2; after ])
    rng_golden

(* Every worker draws on every operation and the contention manager on
   every abort, so integer draws must not allocate. *)
let test_rng_draws_allocation_free () =
  let r = Rng.make 9 in
  let sink = ref 0 in
  let before = Gc.minor_words () in
  for _ = 1 to 10_000 do
    sink := !sink lxor Rng.bits r lxor Rng.int r 1000 lxor Rng.int r 64
  done;
  let words = Gc.minor_words () -. before in
  ignore (Sys.opaque_identity !sink);
  check Alcotest.bool
    (Printf.sprintf "30k integer draws allocated %.0f minor words (budget 64)" words)
    true (words <= 64.0)

let test_zipf_range_and_skew () =
  let rng = Rng.make 13 in
  let z = Rng.zipf ~n:100 ~theta:1.0 in
  let counts = Array.make 100 0 in
  for _ = 1 to 10_000 do
    let v = Rng.zipf_sample rng z in
    check Alcotest.bool "in range" true (v >= 0 && v < 100);
    counts.(v) <- counts.(v) + 1
  done;
  check Alcotest.bool "rank 0 most popular" true (counts.(0) > counts.(50))

(* -- Stats ----------------------------------------------------------------- *)

let test_summarize_known () =
  let s = Stats.summarize [| 1.0; 2.0; 3.0; 4.0; 5.0 |] in
  check (Alcotest.float 1e-9) "mean" 3.0 s.Stats.mean;
  check (Alcotest.float 1e-9) "min" 1.0 s.Stats.min;
  check (Alcotest.float 1e-9) "max" 5.0 s.Stats.max;
  check (Alcotest.float 1e-9) "p50" 3.0 s.Stats.p50;
  check Alcotest.int "count" 5 s.Stats.count;
  check (Alcotest.float 1e-6) "stddev" (sqrt 2.5) s.Stats.stddev

let test_summarize_single () =
  let s = Stats.summarize [| 7.0 |] in
  check (Alcotest.float 1e-9) "mean" 7.0 s.Stats.mean;
  check (Alcotest.float 1e-9) "stddev" 0.0 s.Stats.stddev;
  check (Alcotest.float 1e-9) "p99" 7.0 s.Stats.p99

(* Regression: summarize and percentile_of_sorted are total. The empty
   array yields the documented all-zero summary / 0.0 percentile — no
   exception — so report code needs no pre-checks. *)
let test_summarize_empty () =
  check Alcotest.bool "empty yields empty_summary" true
    (Stats.summarize [||] = Stats.empty_summary);
  check Alcotest.int "empty_summary count is 0" 0 Stats.empty_summary.Stats.count;
  check (Alcotest.float 1e-9) "empty percentile is 0" 0.0
    (Stats.percentile_of_sorted [||] 99.0)

let test_percentile_interpolation () =
  let sorted = [| 0.0; 10.0 |] in
  check (Alcotest.float 1e-9) "p50 midpoint" 5.0 (Stats.percentile_of_sorted sorted 50.0);
  check (Alcotest.float 1e-9) "p0" 0.0 (Stats.percentile_of_sorted sorted 0.0);
  check (Alcotest.float 1e-9) "p100" 10.0 (Stats.percentile_of_sorted sorted 100.0);
  (* A single sample is every percentile of itself. *)
  List.iter
    (fun p ->
      check (Alcotest.float 1e-9) (Printf.sprintf "single p%.0f" p) 7.0
        (Stats.percentile_of_sorted [| 7.0 |] p))
    [ 0.0; 50.0; 100.0 ]

let prop_online_matches_batch =
  qtest "online mean/stddev matches batch"
    QCheck2.Gen.(list_size (int_range 2 50) (float_bound_inclusive 1000.0))
    (fun samples ->
      let online = Stats.online () in
      List.iter (Stats.add online) samples;
      let batch = Stats.summarize (Array.of_list samples) in
      Float.abs (Stats.online_mean online -. batch.Stats.mean) < 1e-6
      && Float.abs (Stats.online_stddev online -. batch.Stats.stddev) < 1e-6)

let test_ratio () =
  check (Alcotest.float 1e-9) "normal" 0.5 (Stats.ratio 1 2);
  check (Alcotest.float 1e-9) "zero denominator" 0.0 (Stats.ratio 5 0)

(* -- Histogram ------------------------------------------------------------- *)

let test_histogram_basics () =
  let h = Histogram.create () in
  List.iter (Histogram.observe h) [ 0; 1; 2; 3; 100; 1000 ];
  check Alcotest.int "count" 6 (Histogram.count h);
  check Alcotest.int "max" 1000 (Histogram.max_value h);
  check (Alcotest.float 1e-6) "mean" (1106.0 /. 6.0) (Histogram.mean h)

let test_histogram_percentile_monotone () =
  let h = Histogram.create () in
  for i = 1 to 1000 do
    Histogram.observe h i
  done;
  let p50 = Histogram.percentile h 50.0 and p99 = Histogram.percentile h 99.0 in
  check Alcotest.bool "monotone" true (p50 <= p99);
  check Alcotest.bool "p50 plausible" true (p50 >= 256 && p50 <= 1024)

let test_histogram_percentile_boundaries () =
  (* Empty: every percentile is 0. *)
  let empty = Histogram.create () in
  List.iter
    (fun p -> check Alcotest.int (Printf.sprintf "empty p%.0f" p) 0 (Histogram.percentile empty p))
    [ 0.0; 50.0; 100.0 ];
  (* Single value: every percentile names its bucket — including p = 0,
     which used to report bucket 0's upper bound (0) even though bucket 0
     was empty. *)
  let single = Histogram.create () in
  Histogram.observe single 100;
  let bucket_upper = 128 (* 100 lands in [64, 127], bound 128 *) in
  List.iter
    (fun p ->
      check Alcotest.int (Printf.sprintf "single p%.0f" p) bucket_upper
        (Histogram.percentile single p))
    [ 0.0; 50.0; 100.0 ];
  (* A genuine zero observation still reports bucket 0. *)
  let zero = Histogram.create () in
  Histogram.observe zero 0;
  check Alcotest.int "zero p0" 0 (Histogram.percentile zero 0.0);
  (* Uniform 1..1000: p0 = minimum's bucket, p100 covers the maximum. *)
  let h = Histogram.create () in
  for i = 1 to 1000 do
    Histogram.observe h i
  done;
  check Alcotest.int "p0 = min bucket" 2 (* 1 lands in [1, 1], bound 2 *) (Histogram.percentile h 0.0);
  check Alcotest.bool "p100 covers max" true (Histogram.percentile h 100.0 >= 1000);
  check Alcotest.bool "p50 mid" true
    (Histogram.percentile h 50.0 >= Histogram.percentile h 0.0
    && Histogram.percentile h 50.0 <= Histogram.percentile h 100.0)

let test_histogram_buckets_json () =
  let h = Histogram.create () in
  List.iter (Histogram.observe h) [ 0; 0; 3; 100 ];
  (* 0 -> bucket 0 (x2); 3 -> [2, 3], bound 4; 100 -> [64, 127], bound 128. *)
  check
    Alcotest.(list (pair int int))
    "buckets" [ (0, 2); (4, 1); (128, 1) ] (Histogram.buckets h);
  check Alcotest.int "buckets sum to count" (Histogram.count h)
    (List.fold_left (fun acc (_, n) -> acc + n) 0 (Histogram.buckets h));
  match Json.of_string (Json.to_string (Histogram.to_json h)) with
  | Error e -> Alcotest.failf "histogram json did not parse: %s" e
  | Ok json ->
      check Alcotest.(option int) "count field" (Some 4)
        (Option.bind (Json.member "count" json) Json.to_int);
      let buckets = Option.bind (Json.member "buckets" json) Json.to_list in
      check Alcotest.(option int) "bucket list arity" (Some 3)
        (Option.map List.length buckets)

(* Bucket b >= 1 holds [2^(b-1), 2^b - 1] under the bound 2^b: a power of
   two opens the next bucket rather than closing its own. *)
let test_histogram_bucket_edges () =
  let h = Histogram.create () in
  List.iter (Histogram.observe h) [ 1; 2; 4 ];
  check Alcotest.(list (pair int int)) "buckets" [ (2, 1); (4, 1); (8, 1) ] (Histogram.buckets h);
  check Alcotest.int "count_le 4 excludes the value 4" 2 (Histogram.count_le h 4)

let test_histogram_merge_reset () =
  let a = Histogram.create () and b = Histogram.create () in
  Histogram.observe a 5;
  Histogram.observe b 50;
  Histogram.merge_into ~dst:a b;
  check Alcotest.int "merged count" 2 (Histogram.count a);
  check Alcotest.int "merged max" 50 (Histogram.max_value a);
  Histogram.reset a;
  check Alcotest.int "reset count" 0 (Histogram.count a)

(* -- Table / Csv ----------------------------------------------------------- *)

let string_contains haystack needle =
  let hn = String.length haystack and nn = String.length needle in
  let rec loop i = i + nn <= hn && (String.sub haystack i nn = needle || loop (i + 1)) in
  nn = 0 || loop 0

let test_table_render () =
  let t = Table.create ~title:"demo" ~header:[ "name"; "value" ] in
  Table.add_row t [ "alpha"; "1" ];
  Table.add_rowf t "beta\t%d" 22;
  let rendered = Table.render t in
  List.iter
    (fun needle -> check Alcotest.bool needle true (string_contains rendered needle))
    [ "demo"; "alpha"; "beta"; "22"; "name" ]

let test_csv_quoting () =
  check Alcotest.string "plain" "a,b" (Csv.row_to_string [ "a"; "b" ]);
  check Alcotest.string "comma" "\"a,b\",c" (Csv.row_to_string [ "a,b"; "c" ]);
  check Alcotest.string "quote" "\"a\"\"b\"" (Csv.row_to_string [ "a\"b" ]);
  check Alcotest.string "newline" "\"a\nb\"" (Csv.row_to_string [ "a\nb" ])

let rows_testable = Alcotest.(list (list string))

let test_csv_parse_roundtrip () =
  let rows =
    [
      [ "sample"; "partition"; "commits" ];
      [ "0"; "plain"; "12" ];
      [ "1"; "with,comma"; "0" ];
      [ "2"; "with\"quote"; "3" ];
      [ "3"; "multi\nline"; "" ];
    ]
  in
  let emitted = String.concat "" (List.map (fun r -> Csv.row_to_string r ^ "\n") rows) in
  check rows_testable "roundtrip" rows (Csv.parse_string emitted);
  check rows_testable "no final newline" [ [ "a"; "b" ] ] (Csv.parse_string "a,b");
  check rows_testable "crlf tolerated" [ [ "a"; "b" ]; [ "c"; "d" ] ]
    (Csv.parse_string "a,b\r\nc,d\r\n");
  check rows_testable "empty input" [] (Csv.parse_string "")

(* -- Json ------------------------------------------------------------------- *)

let json_roundtrip value = Json.of_string (Json.to_string value)

let test_json_roundtrip () =
  let value =
    Json.Obj
      [
        ("schema", Json.String "partstm.telemetry/1");
        ("count", Json.Int 42);
        ("rate", Json.Float 0.125);
        ("whole", Json.Float 3.0);
        ("ok", Json.Bool true);
        ("nothing", Json.Null);
        ( "samples",
          Json.List
            [
              Json.Obj [ ("partition", Json.String "tricky \"name\", with\nescapes") ];
              Json.List [ Json.Int 1; Json.Int (-2) ];
            ] );
      ]
  in
  match json_roundtrip value with
  | Ok parsed -> check Alcotest.bool "roundtrip equal" true (parsed = value)
  | Error message -> Alcotest.failf "parse failed: %s" message

let test_json_parse_basics () =
  check Alcotest.bool "whitespace" true
    (Json.of_string " { \"a\" : [ 1 , 2.5 , null , true ] } "
    = Ok (Json.Obj [ ("a", Json.List [ Json.Int 1; Json.Float 2.5; Json.Null; Json.Bool true ]) ]));
  check Alcotest.bool "unicode escape" true
    (Json.of_string "\"\\u0041\"" = Ok (Json.String "A"));
  check Alcotest.bool "negative float" true
    (Json.of_string "-1.5e2" = Ok (Json.Float (-150.0)));
  (match Json.of_string "{\"a\":1" with
  | Error _ -> ()
  | Ok _ -> Alcotest.fail "unterminated object accepted");
  (match Json.of_string "[1,2] trailing" with
  | Error _ -> ()
  | Ok _ -> Alcotest.fail "trailing garbage accepted");
  match Json.of_string "" with
  | Error _ -> ()
  | Ok _ -> Alcotest.fail "empty input accepted"

let test_json_accessors () =
  let value = Json.Obj [ ("xs", Json.List [ Json.Int 7 ]); ("name", Json.String "n") ] in
  check Alcotest.(option int) "member int" (Some 7)
    (Option.bind (Json.member "xs" value) Json.to_list
    |> Option.map List.hd
    |> Fun.flip Option.bind Json.to_int);
  check Alcotest.(option string) "member string" (Some "n")
    (Option.bind (Json.member "name" value) Json.to_str);
  check Alcotest.bool "missing member" true (Json.member "zzz" value = None);
  check Alcotest.(option (float 1e-9)) "int as float" (Some 7.0)
    (Json.to_float (Json.Int 7))

(* Regression: [Json.canonical] makes serialization a function of the JSON
   value, not of construction order — two objects built with their keys in
   opposite orders serialize to identical bytes (the artifact-diffability
   contract the metrics/affinity/SLO exporters rely on). *)
let test_json_canonical () =
  let nested fields = Json.Obj [ ("outer", Json.Obj fields); ("z", Json.Int 1) ] in
  let a = nested [ ("beta", Json.Int 2); ("alpha", Json.String "x") ] in
  let b = Json.Obj [ ("z", Json.Int 1); ("outer", Json.Obj [ ("alpha", Json.String "x"); ("beta", Json.Int 2) ]) ] in
  check Alcotest.string "canonical bytes independent of key order"
    (Json.to_string (Json.canonical a))
    (Json.to_string (Json.canonical b));
  check Alcotest.bool "non-canonical orders differ" true
    (Json.to_string a <> Json.to_string b);
  (* List order is data, not presentation: it must be preserved. *)
  let l = Json.List [ Json.Int 3; Json.Int 1; Json.Int 2 ] in
  check Alcotest.string "list order preserved" (Json.to_string l)
    (Json.to_string (Json.canonical l));
  (* canonical is idempotent. *)
  check Alcotest.string "idempotent"
    (Json.to_string (Json.canonical a))
    (Json.to_string (Json.canonical (Json.canonical a)))

(* -- Vec ------------------------------------------------------------------- *)

let test_vec_push_get () =
  let v = Vec.create ~capacity:2 ~dummy:(-1) () in
  for i = 0 to 99 do
    Vec.push v i
  done;
  check Alcotest.int "length" 100 (Vec.length v);
  check Alcotest.int "get 0" 0 (Vec.get v 0);
  check Alcotest.int "get 99" 99 (Vec.get v 99);
  Alcotest.check_raises "out of bounds" (Invalid_argument "Vec.get") (fun () ->
      ignore (Vec.get v 100))

let test_vec_clear_reuse () =
  let v = Vec.create ~dummy:0 () in
  Vec.push v 1;
  Vec.push v 2;
  Vec.clear v;
  check Alcotest.bool "empty" true (Vec.is_empty v);
  Vec.push v 9;
  check Alcotest.int "reused" 9 (Vec.get v 0);
  check Alcotest.int "length" 1 (Vec.length v)

let test_vec_iteration () =
  let v = Vec.create ~dummy:0 () in
  List.iter (Vec.push v) [ 3; 1; 4; 1; 5 ];
  let seen = ref [] in
  Vec.iter (fun x -> seen := x :: !seen) v;
  check Alcotest.(list int) "iter visits [0, length) in order" [ 3; 1; 4; 1; 5 ] (List.rev !seen)

let test_vec_wipe_resident () =
  let v = Vec.create ~dummy:(-1) () in
  List.iter (Vec.push v) [ 1; 2; 3 ];
  check Alcotest.int "resident after pushes" 3 (Vec.resident v);
  (* [clear] resets the length but pins the elements — the descriptor-reuse
     leak this pair of functions exists to measure and fix. *)
  Vec.clear v;
  check Alcotest.int "clear pins slots" 3 (Vec.resident v);
  List.iter (Vec.push v) [ 7; 8; 9 ];
  Vec.wipe v;
  check Alcotest.int "wipe releases" 0 (Vec.resident v);
  check Alcotest.int "wipe resets length" 0 (Vec.length v);
  Vec.push v 5;
  check Alcotest.int "reusable after wipe" 5 (Vec.get v 0);
  check Alcotest.int "resident counts live" 1 (Vec.resident v)

(* Model-based property: a Vec behaves like a list under every operation
   mix, including from ~capacity:0 (first push must grow an empty backing
   array) and re-push after each clear flavour.  An Intvec driven by the
   same pushes and clears must hold the same list. *)

type vec_op = V_push of int | V_clear | V_wipe

let vec_op_gen =
  QCheck2.Gen.(
    frequency
      [
        (6, map (fun x -> V_push x) small_int);
        (1, return V_clear);
        (1, return V_wipe);
      ])

let prop_vec_matches_list_model =
  qtest "vec matches list model (from capacity 0)"
    QCheck2.Gen.(list_size (int_range 0 120) vec_op_gen)
    (fun ops ->
      let v = Vec.create ~capacity:0 ~dummy:(-1) () in
      let iv = Intvec.create ~capacity:0 () in
      let model = ref [] in
      List.iter
        (fun op ->
          match op with
          | V_push x ->
              Vec.push v x;
              Intvec.push iv x;
              model := !model @ [ x ]
          | V_clear ->
              Vec.clear v;
              Intvec.clear iv;
              model := []
          | V_wipe ->
              Vec.wipe v;
              Intvec.clear iv;
              model := [])
        ops;
      List.init (Vec.length v) (Vec.get v) = !model
      && List.init (Intvec.length iv) (Intvec.get iv) = !model
      && Vec.is_empty v = (!model = []))

(* -- Ring ------------------------------------------------------------------- *)

let test_ring_capacity_guard () =
  Alcotest.check_raises "capacity 0" (Invalid_argument "Ring.create: capacity") (fun () ->
      ignore (Ring.create ~capacity:0))

(* Model-based property: after any number of pushes a ring holds the newest
   [capacity] of them, oldest first, and counts the rest as dropped. *)
let prop_ring_keeps_newest =
  qtest "ring keeps the newest entries and counts the dropped"
    QCheck2.Gen.(pair (int_range 1 20) (list_size (int_range 0 100) small_int))
    (fun (capacity, xs) ->
      let r = Ring.create ~capacity in
      List.iter (Ring.push r) xs;
      let n = List.length xs in
      let dropped = max 0 (n - capacity) in
      Ring.to_list r = List.filteri (fun i _ -> i >= dropped) xs
      && Ring.length r = n - dropped
      && Ring.dropped r = dropped)

(* -- Intmap ----------------------------------------------------------------- *)

let test_intmap_basics () =
  let m = Intmap.create ~capacity:4 () in
  check Alcotest.int "absent" (-1) (Intmap.find m 7);
  check Alcotest.bool "not mem" false (Intmap.mem m 7);
  Intmap.set m 7 1;
  Intmap.set m 130 2;
  check Alcotest.int "find 7" 1 (Intmap.find m 7);
  check Alcotest.int "find 130" 2 (Intmap.find m 130);
  Intmap.set m 7 9;
  check Alcotest.int "overwrite" 9 (Intmap.find m 7);
  check Alcotest.int "length" 2 (Intmap.length m);
  Intmap.clear m;
  check Alcotest.int "cleared find" (-1) (Intmap.find m 7);
  check Alcotest.int "cleared length" 0 (Intmap.length m);
  Intmap.set m 7 3;
  check Alcotest.int "reusable after clear" 3 (Intmap.find m 7);
  Alcotest.check_raises "negative key" (Invalid_argument "Intmap: negative key") (fun () ->
      ignore (Intmap.find m (-1)))

let test_intmap_growth () =
  let m = Intmap.create ~capacity:4 () in
  for k = 0 to 1999 do
    Intmap.set m (k * 3) k
  done;
  check Alcotest.int "length" 2000 (Intmap.length m);
  check Alcotest.bool "grew" true (Intmap.capacity m >= 4000);
  for k = 0 to 1999 do
    if Intmap.find m (k * 3) <> k then Alcotest.failf "lost key %d after growth" (k * 3)
  done;
  Intmap.clear m;
  for k = 0 to 1999 do
    if Intmap.mem m (k * 3) then Alcotest.failf "key %d survived clear" (k * 3)
  done

type intmap_op = I_set of int * int | I_find_or_add of int * int | I_clear

(* The model's key universe: 65 keys shaped like the transaction
   descriptor's orec keys (region entry index above bit 17, slot below)
   whose folds collide in few buckets, forcing overwrites and long probe
   chains. *)
let intmap_key k = ((k lsr 3) lsl 17) lor (k land 7)

let intmap_op_gen =
  QCheck2.Gen.(
    frequency
      [
        (6, map2 (fun k v -> I_set (intmap_key k, v)) (int_range 0 64) small_nat);
        (3, map2 (fun k v -> I_find_or_add (intmap_key k, v)) (int_range 0 64) small_nat);
        (1, return I_clear);
      ])

let prop_intmap_matches_hashtbl =
  qtest "intmap matches Hashtbl model"
    QCheck2.Gen.(list_size (int_range 0 300) intmap_op_gen)
    (fun ops ->
      let m = Intmap.create ~capacity:4 () in
      let h = Hashtbl.create 16 in
      List.for_all
        (fun op ->
          let returned_ok =
            match op with
            | I_set (k, v) ->
                Intmap.set m k v;
                Hashtbl.replace h k v;
                true
            | I_find_or_add (k, v) ->
                let expected = Option.value (Hashtbl.find_opt h k) ~default:(-1) in
                if expected < 0 then Hashtbl.replace h k v;
                Intmap.find_or_add m k v = expected
            | I_clear ->
                Intmap.clear m;
                Hashtbl.reset h;
                true
          in
          returned_ok
          && Intmap.length m = Hashtbl.length h
          && Hashtbl.fold (fun k v acc -> acc && Intmap.find m k = v) h true
          &&
          let agree = ref true in
          for k = 0 to 64 do
            if Intmap.mem m (intmap_key k) <> Hashtbl.mem h (intmap_key k) then agree := false
          done;
          !agree)
        ops)

(* -- Fs ---------------------------------------------------------------------- *)

let test_fs_write_file () =
  let root = Filename.temp_dir "partstm-fs" "" in
  let dir = Filename.concat (Filename.concat root "missing") "nested" in
  let path = Filename.concat dir "out.txt" in
  let read () = In_channel.with_open_bin path In_channel.input_all in
  Fs.write_file path "first version, longer than the second\n";
  check Alcotest.string "written under missing parents" "first version, longer than the second\n"
    (read ());
  Fs.write_file path "second\n";
  check Alcotest.string "overwrite replaces the whole file" "second\n" (read ());
  check Alcotest.(list string) "no temporary file left" [ "out.txt" ]
    (Array.to_list (Sys.readdir dir));
  let reference = Filename.concat dir "reference.txt" in
  close_out (open_out reference);
  check Alcotest.int "same mode as open_out" (Unix.stat reference).Unix.st_perm
    (Unix.stat path).Unix.st_perm;
  Fs.mkdir_p dir;
  Sys.remove reference;
  Sys.remove path;
  Sys.rmdir dir;
  Sys.rmdir (Filename.dirname dir);
  Sys.rmdir root

(* -- Runtime hook ---------------------------------------------------------- *)

let test_runtime_hook_install_reset () =
  let hits = ref 0 in
  Runtime_hook.install ~charge:(fun _ -> incr hits) ~relax:(fun () -> incr hits) ();
  Runtime_hook.charge (Runtime_hook.Step 1);
  Runtime_hook.relax ();
  check Alcotest.int "hooks fired" 2 !hits;
  Runtime_hook.reset ();
  Runtime_hook.charge (Runtime_hook.Step 1);
  check Alcotest.int "default is silent" 2 !hits;
  (* [critical] defaults to the identity and is restored by [reset]. *)
  let ran = ref false in
  Runtime_hook.critical (fun () -> ran := true);
  check Alcotest.bool "critical default runs inline" true !ran

let () =
  Alcotest.run "partstm_util"
    [
      ( "bits",
        [
          Alcotest.test_case "is_power_of_two" `Quick test_is_power_of_two;
          Alcotest.test_case "ceil_power_of_two" `Quick test_ceil_power_of_two;
          Alcotest.test_case "ceil_power_of_two guards" `Quick test_ceil_power_of_two_guards;
          Alcotest.test_case "log2" `Quick test_log2;
          Alcotest.test_case "popcount" `Quick test_popcount;
          prop_floor_log2_of_power;
          prop_hash_to_slot_in_range;
          prop_mix_int_deterministic;
        ] );
      ( "rng",
        [
          Alcotest.test_case "deterministic" `Quick test_rng_deterministic;
          Alcotest.test_case "split independent" `Quick test_rng_split_independent;
          Alcotest.test_case "golden streams" `Quick test_rng_golden;
          Alcotest.test_case "integer draws allocation-free" `Quick test_rng_draws_allocation_free;
          Alcotest.test_case "float unit interval" `Quick test_rng_float_unit_interval;
          Alcotest.test_case "chance extremes" `Quick test_rng_chance_extremes;
          Alcotest.test_case "shuffle permutation" `Quick test_rng_shuffle_permutation;
          Alcotest.test_case "zipf range and skew" `Quick test_zipf_range_and_skew;
          prop_rng_int_bounds;
          prop_rng_range_bounds;
        ] );
      ( "stats",
        [
          Alcotest.test_case "summarize known" `Quick test_summarize_known;
          Alcotest.test_case "summarize single" `Quick test_summarize_single;
          Alcotest.test_case "summarize empty" `Quick test_summarize_empty;
          Alcotest.test_case "percentile interpolation" `Quick test_percentile_interpolation;
          Alcotest.test_case "ratio" `Quick test_ratio;
          prop_online_matches_batch;
        ] );
      ( "histogram",
        [
          Alcotest.test_case "basics" `Quick test_histogram_basics;
          Alcotest.test_case "percentile monotone" `Quick test_histogram_percentile_monotone;
          Alcotest.test_case "percentile boundaries" `Quick test_histogram_percentile_boundaries;
          Alcotest.test_case "buckets and json" `Quick test_histogram_buckets_json;
          Alcotest.test_case "power-of-two bucket edges" `Quick test_histogram_bucket_edges;
          Alcotest.test_case "merge and reset" `Quick test_histogram_merge_reset;
        ] );
      ( "table_csv",
        [
          Alcotest.test_case "table render" `Quick test_table_render;
          Alcotest.test_case "csv quoting" `Quick test_csv_quoting;
          Alcotest.test_case "csv parse roundtrip" `Quick test_csv_parse_roundtrip;
        ] );
      ( "json",
        [
          Alcotest.test_case "roundtrip" `Quick test_json_roundtrip;
          Alcotest.test_case "parse basics" `Quick test_json_parse_basics;
          Alcotest.test_case "accessors" `Quick test_json_accessors;
          Alcotest.test_case "canonical ordering" `Quick test_json_canonical;
        ] );
      ( "vec",
        [
          Alcotest.test_case "push get" `Quick test_vec_push_get;
          Alcotest.test_case "clear reuse" `Quick test_vec_clear_reuse;
          Alcotest.test_case "iteration" `Quick test_vec_iteration;
          Alcotest.test_case "wipe and resident" `Quick test_vec_wipe_resident;
          prop_vec_matches_list_model;
        ] );
      ( "ring",
        [
          Alcotest.test_case "capacity guard" `Quick test_ring_capacity_guard;
          prop_ring_keeps_newest;
        ] );
      ( "intmap",
        [
          Alcotest.test_case "basics" `Quick test_intmap_basics;
          Alcotest.test_case "growth" `Quick test_intmap_growth;
          prop_intmap_matches_hashtbl;
        ] );
      ("fs", [ Alcotest.test_case "write_file" `Quick test_fs_write_file ]);
      ( "runtime_hook",
        [ Alcotest.test_case "install reset" `Quick test_runtime_hook_install_reset ] );
    ]
