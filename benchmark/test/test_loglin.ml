(* The benchmark's log-linear histogram against a sorted-array oracle. *)

let check = Alcotest.check

(* Nearest-rank percentile of a sorted array. *)
let oracle sorted p =
  let n = Array.length sorted in
  let k = max 1 (min n (int_of_float (Float.ceil (p /. 100.0 *. float_of_int n)))) in
  sorted.(k - 1)

let distributions =
  [
    ("small", fun st -> Random.State.int st 100);
    ("uniform", fun st -> Random.State.int st 1_000_000);
    ("log-uniform", fun st -> int_of_float (2.0 ** Random.State.float st 40.0));
    ("exponential", fun st -> int_of_float (-3000.0 *. log (1.0 -. Random.State.float st 1.0)));
  ]

let percentiles = [ 0.0; 1.0; 10.0; 25.0; 50.0; 75.0; 90.0; 99.0; 99.9; 100.0 ]

let test_against_oracle () =
  let st = Random.State.make [| 11 |] in
  List.iter
    (fun (label, draw) ->
      List.iter
        (fun n ->
          let values = Array.init n (fun _ -> draw st) in
          let h = Loglin.create () in
          Array.iter (Loglin.observe h) values;
          Array.sort compare values;
          check Alcotest.int "count" n (Loglin.count h);
          check Alcotest.int "sum" (Array.fold_left ( + ) 0 values) (Loglin.sum h);
          List.iter
            (fun p ->
              let exact = float_of_int (oracle values p) in
              let got = Option.get (Loglin.percentile h p) in
              let err = Float.abs (got -. exact) in
              if err > exact /. 32.0 then
                Alcotest.failf "%s n=%d p%g: got %f, exact %f (error %.4f > 1/32)" label n p got exact
                  (err /. exact))
            percentiles)
        [ 1; 7; 1000; 50_000 ])
    distributions

let random_hist st n =
  let h = Loglin.create () in
  for _ = 1 to n do
    Loglin.observe h (Random.State.int st 10_000_000)
  done;
  h

(* A fresh histogram holding both arguments' observations. *)
let merge a b =
  let d = Loglin.create () in
  Loglin.merge_into ~dst:d a;
  Loglin.merge_into ~dst:d b;
  d

let test_merge_associative () =
  let st = Random.State.make [| 5 |] in
  for _ = 1 to 20 do
    let a = random_hist st 500 and b = random_hist st 0 and c = random_hist st 3000 in
    let left = merge (merge a b) c and right = merge a (merge b c) in
    check Alcotest.bool "(a+b)+c = a+(b+c)" true (left = right);
    check Alcotest.bool "a+c = c+a" true (merge a c = merge c a);
    check Alcotest.int "count adds" 3500 (Loglin.count left)
  done

let test_empty () =
  let h = Loglin.create () in
  check Alcotest.(option (float 0.0)) "no percentile" None (Loglin.percentile h 50.0);
  check Alcotest.string "prints n/a" "n/a" (Loglin.to_string h 99.0);
  check Alcotest.int "nothing beyond" 0 (Loglin.beyond h 99.0);
  check Alcotest.bool "empty is merge identity" true (merge h h = Loglin.create ())

let test_beyond () =
  let h = Loglin.create () in
  for v = 1 to 1000 do
    Loglin.observe h v
  done;
  check Alcotest.int "10 beyond p99 of 1000" 10 (Loglin.beyond h 99.0);
  check Alcotest.int "500 beyond p50" 500 (Loglin.beyond h 50.0)

let () =
  Alcotest.run "loglin"
    [
      ( "loglin",
        [
          Alcotest.test_case "percentiles within 1/32 of a sorted-array oracle" `Quick
            test_against_oracle;
          Alcotest.test_case "merge is associative" `Quick test_merge_associative;
          Alcotest.test_case "empty histogram prints n/a" `Quick test_empty;
          Alcotest.test_case "samples beyond a percentile" `Quick test_beyond;
        ] );
    ]
