(* Tests for the transactional data structures: unit cases per structure,
   qcheck model tests against OCaml reference containers, invariant checks,
   and concurrent hammering under real domains. *)

open Partstm_stm
open Partstm_core
open Partstm_structures

let check = Alcotest.check
let qtest ?(count = 60) name gen law =
  QCheck_alcotest.to_alcotest (QCheck2.Test.make ~count ~name gen law)

let fresh () =
  let system = System.create () in
  let partition = System.partition system "test" in
  let txn = System.descriptor system ~worker_id:0 in
  (system, partition, txn)

(* -- Tarray ------------------------------------------------------------------ *)

let test_array_basics () =
  let _, p, txn = fresh () in
  let a = Tarray.init p ~length:8 (fun i -> i * i) in
  check Alcotest.int "length" 8 (Tarray.length a);
  check Alcotest.int "peek" 49 (Tarray.peek a 7);
  Txn.atomically txn (fun t ->
      check Alcotest.int "get" 16 (Tarray.get t a 4);
      Tarray.set t a 4 100;
      Tarray.modify t a 0 (fun v -> v + 1);
      check Alcotest.int "after set" 100 (Tarray.get t a 4));
  check Alcotest.int "committed set" 100 (Tarray.peek a 4);
  check Alcotest.int "committed modify" 1 (Tarray.peek a 0)

let test_array_swap_and_fold () =
  let _, p, txn = fresh () in
  let a = Tarray.init p ~length:4 (fun i -> i) in
  Txn.atomically txn (fun t ->
      Tarray.swap t a 0 3;
      Tarray.swap t a 1 1);
  check Alcotest.int "swapped 0" 3 (Tarray.peek a 0);
  check Alcotest.int "swapped 3" 0 (Tarray.peek a 3);
  check Alcotest.int "self swap" 1 (Tarray.peek a 1);
  check Alcotest.int "fold" 6 (Txn.atomically txn (fun t -> Tarray.fold t a ( + ) 0));
  check Alcotest.int "peek_fold" 6 (Tarray.peek_fold a ( + ) 0)

let test_array_validation () =
  let _, p, _ = fresh () in
  Alcotest.check_raises "zero length" (Invalid_argument "Tarray.make: length") (fun () ->
      ignore (Tarray.make p ~length:0 0))

(* -- Set-structure battery ---------------------------------------------------- *)

type set_under_test = {
  sut_name : string;
  sut_add : Txn.t -> int -> bool;
  sut_remove : Txn.t -> int -> bool;
  sut_mem : Txn.t -> int -> bool;
  sut_size : Txn.t -> unit -> int;
  sut_elements : unit -> int list;
  sut_check : unit -> bool;
}

let make_list p =
  let s = Tlist.make p in
  {
    sut_name = "tlist";
    sut_add = (fun t k -> Tlist.add t s k);
    sut_remove = (fun t k -> Tlist.remove t s k);
    sut_mem = (fun t k -> Tlist.mem t s k);
    sut_size = (fun t () -> Tlist.size t s);
    sut_elements = (fun () -> Tlist.peek_to_list s);
    sut_check = (fun () -> Tlist.check s);
  }

let make_skiplist p =
  let s = Tskiplist.make p in
  {
    sut_name = "tskiplist";
    sut_add = (fun t k -> Tskiplist.add t s k);
    sut_remove = (fun t k -> Tskiplist.remove t s k);
    sut_mem = (fun t k -> Tskiplist.mem t s k);
    sut_size = (fun t () -> Tskiplist.size t s);
    sut_elements = (fun () -> Tskiplist.peek_level s 0);
    sut_check = (fun () -> Tskiplist.check s);
  }

let make_hashset p =
  let s = Thashset.make p ~buckets:16 in
  {
    sut_name = "thashset";
    sut_add = (fun t k -> Thashset.add t s k);
    sut_remove = (fun t k -> Thashset.remove t s k);
    sut_mem = (fun t k -> Thashset.mem t s k);
    sut_size = (fun t () -> Thashset.size t s);
    sut_elements = (fun () -> Thashset.peek_elements s);
    sut_check = (fun () -> Thashset.check s);
  }

let make_rbtree p =
  let s = Trbtree.make p in
  {
    sut_name = "trbtree";
    sut_add = (fun t k -> Trbtree.add t s k k);
    sut_remove = (fun t k -> Trbtree.remove t s k);
    sut_mem = (fun t k -> Trbtree.mem t s k);
    sut_size = (fun t () -> Trbtree.size t s);
    sut_elements = (fun () -> List.map fst (Trbtree.peek_to_list s));
    sut_check = (fun () -> Trbtree.check_ok s);
  }

let all_set_makers =
  [ ("tlist", make_list); ("tskiplist", make_skiplist); ("thashset", make_hashset); ("trbtree", make_rbtree) ]

let set_unit_battery maker () =
  let _, p, txn = fresh () in
  let s = maker p in
  (* empty set *)
  check Alcotest.bool "empty mem" false (Txn.atomically txn (fun t -> s.sut_mem t 1));
  check Alcotest.bool "empty remove" false (Txn.atomically txn (fun t -> s.sut_remove t 1));
  check Alcotest.int "empty size" 0 (Txn.atomically txn (fun t -> s.sut_size t ()));
  (* add + dup *)
  check Alcotest.bool "add new" true (Txn.atomically txn (fun t -> s.sut_add t 5));
  check Alcotest.bool "add dup" false (Txn.atomically txn (fun t -> s.sut_add t 5));
  check Alcotest.bool "mem" true (Txn.atomically txn (fun t -> s.sut_mem t 5));
  (* more elements, ordering *)
  List.iter (fun k -> ignore (Txn.atomically txn (fun t -> s.sut_add t k))) [ 9; 1; 7; 3 ];
  check Alcotest.(list int) "sorted elements" [ 1; 3; 5; 7; 9 ] (s.sut_elements ());
  check Alcotest.int "size" 5 (Txn.atomically txn (fun t -> s.sut_size t ()));
  (* remove *)
  check Alcotest.bool "remove present" true (Txn.atomically txn (fun t -> s.sut_remove t 5));
  check Alcotest.bool "remove absent" false (Txn.atomically txn (fun t -> s.sut_remove t 5));
  check Alcotest.(list int) "after remove" [ 1; 3; 7; 9 ] (s.sut_elements ());
  (* boundary keys *)
  ignore (Txn.atomically txn (fun t -> s.sut_add t 0));
  ignore (Txn.atomically txn (fun t -> s.sut_add t max_int));
  check Alcotest.bool "min boundary" true (Txn.atomically txn (fun t -> s.sut_mem t 0));
  check Alcotest.bool "max boundary" true (Txn.atomically txn (fun t -> s.sut_mem t max_int));
  check Alcotest.bool "invariants" true (s.sut_check ())

module IntSet = Set.Make (Int)

(* Random operation sequences against a Set model. *)
let set_model_test name maker =
  let gen =
    QCheck2.Gen.(list_size (int_range 0 200) (pair (int_range 0 2) (int_range 0 30)))
  in
  qtest (name ^ " matches Set model") gen (fun ops ->
      let _, p, txn = fresh () in
      let s = maker p in
      let model = ref IntSet.empty in
      let ok = ref true in
      List.iter
        (fun (op, key) ->
          match op with
          | 0 ->
              let expected = not (IntSet.mem key !model) in
              model := IntSet.add key !model;
              if Txn.atomically txn (fun t -> s.sut_add t key) <> expected then ok := false
          | 1 ->
              let expected = IntSet.mem key !model in
              model := IntSet.remove key !model;
              if Txn.atomically txn (fun t -> s.sut_remove t key) <> expected then ok := false
          | _ ->
              if Txn.atomically txn (fun t -> s.sut_mem t key) <> IntSet.mem key !model then
                ok := false)
        ops;
      !ok && s.sut_elements () = IntSet.elements !model && s.sut_check ())

let set_concurrent_test name maker =
  Alcotest.test_case (name ^ " concurrent hammer") `Slow (fun () ->
      let system = System.create () in
      let p = System.partition system "hammer" in
      let s = maker p in
      let domains =
        List.init 4 (fun w ->
            Domain.spawn (fun () ->
                let txn = System.descriptor system ~worker_id:w in
                let rng = Partstm_util.Rng.make (w + 1) in
                for _ = 1 to 3000 do
                  let key = Partstm_util.Rng.int rng 64 in
                  if Partstm_util.Rng.bool rng then
                    ignore (Txn.atomically txn (fun t -> s.sut_add t key))
                  else ignore (Txn.atomically txn (fun t -> s.sut_remove t key))
                done))
      in
      List.iter Domain.join domains;
      check Alcotest.bool "invariants survive concurrency" true (s.sut_check ()))

(* -- Trbtree specifics --------------------------------------------------------- *)

let test_rbtree_values () =
  let _, p, txn = fresh () in
  let s = Trbtree.make p in
  check Alcotest.bool "insert" true (Txn.atomically txn (fun t -> Trbtree.add t s 1 100));
  check Alcotest.(option int) "find" (Some 100) (Txn.atomically txn (fun t -> Trbtree.find t s 1));
  check Alcotest.bool "update returns false" false
    (Txn.atomically txn (fun t -> Trbtree.add t s 1 200));
  check Alcotest.(option int) "updated" (Some 200) (Txn.atomically txn (fun t -> Trbtree.find t s 1));
  check Alcotest.(option int) "absent" None (Txn.atomically txn (fun t -> Trbtree.find t s 2))

let test_rbtree_delete_shapes () =
  (* Exercise every deletion case: leaf, single child (left/right), two
     children with successor adjacent and distant, and root. *)
  let _, p, txn = fresh () in
  let s = Trbtree.make p in
  let add k = ignore (Txn.atomically txn (fun t -> Trbtree.add t s k k)) in
  let remove k = ignore (Txn.atomically txn (fun t -> Trbtree.remove t s k)) in
  List.iter add [ 50; 25; 75; 12; 37; 62; 87; 6; 18; 31; 43; 56; 68; 81; 93 ];
  check Alcotest.int "full tree valid" 0 (List.length (Trbtree.check s));
  remove 6;
  (* leaf *)
  remove 12;
  (* single child *)
  remove 25;
  (* two children, successor distant *)
  remove 50;
  (* root with two children *)
  check Alcotest.int "after shaped deletes" 0 (List.length (Trbtree.check s));
  check Alcotest.(list int) "remaining keys" [ 18; 31; 37; 43; 56; 62; 68; 75; 81; 87; 93 ]
    (List.map fst (Trbtree.peek_to_list s));
  List.iter remove [ 18; 31; 37; 43; 56; 62; 68; 75; 81; 87; 93 ];
  check Alcotest.int "emptied" 0 (List.length (Trbtree.check s));
  check Alcotest.int "empty" 0 (List.length (Trbtree.peek_to_list s))

let test_rbtree_fold_order () =
  let _, p, txn = fresh () in
  let s = Trbtree.make p in
  List.iter (fun k -> ignore (Txn.atomically txn (fun t -> Trbtree.add t s k (k * 2))))
    [ 5; 3; 8; 1; 9 ];
  check
    Alcotest.(list (pair int int))
    "inorder with values"
    [ (1, 2); (3, 6); (5, 10); (8, 16); (9, 18) ]
    (Txn.atomically txn (fun t -> Trbtree.to_list t s))

let prop_rbtree_random_ops_invariants =
  let gen =
    QCheck2.Gen.(list_size (int_range 1 300) (pair bool (int_range 0 50)))
  in
  qtest ~count:40 "rbtree invariants under random ops" gen (fun ops ->
      let _, p, txn = fresh () in
      let s = Trbtree.make p in
      List.iter
        (fun (add, key) ->
          if add then ignore (Txn.atomically txn (fun t -> Trbtree.add t s key key))
          else ignore (Txn.atomically txn (fun t -> Trbtree.remove t s key)))
        ops;
      Trbtree.check s = [])

(* -- Tskiplist specifics -------------------------------------------------------- *)

let test_skiplist_levels_deterministic () =
  for key = 0 to 1000 do
    let l1 = Tskiplist.level_of_key key and l2 = Tskiplist.level_of_key key in
    if l1 <> l2 || l1 < 1 || l1 > Tskiplist.max_level then
      Alcotest.failf "bad level %d for key %d" l1 key
  done

let test_skiplist_level_distribution () =
  (* Geometric(1/2): about half the keys have level 1. *)
  let n = 10_000 in
  let level_one = ref 0 in
  for key = 0 to n - 1 do
    if Tskiplist.level_of_key key = 1 then incr level_one
  done;
  let fraction = float_of_int !level_one /. float_of_int n in
  check Alcotest.bool "about half at level 1" true (fraction > 0.40 && fraction < 0.60)

(* -- Tqueue ---------------------------------------------------------------------- *)

let test_queue_fifo () =
  let _, p, txn = fresh () in
  let q = Tqueue.make p in
  check Alcotest.bool "empty" true (Txn.atomically txn (fun t -> Tqueue.is_empty t q));
  check Alcotest.(option int) "dequeue empty" None (Txn.atomically txn (fun t -> Tqueue.dequeue t q));
  Txn.atomically txn (fun t ->
      Tqueue.enqueue t q 1;
      Tqueue.enqueue t q 2;
      Tqueue.enqueue t q 3);
  check Alcotest.int "length" 3 (Txn.atomically txn (fun t -> Tqueue.length t q));
  check Alcotest.(option int) "fifo 1" (Some 1) (Txn.atomically txn (fun t -> Tqueue.dequeue t q));
  Txn.atomically txn (fun t -> Tqueue.enqueue t q 4);
  check Alcotest.(option int) "fifo 2" (Some 2) (Txn.atomically txn (fun t -> Tqueue.dequeue t q));
  check Alcotest.(list int) "snapshot" [ 3; 4 ] (Tqueue.peek_to_list q);
  check Alcotest.int "peek length" 2 (Tqueue.peek_length q)

let prop_queue_matches_model =
  let gen = QCheck2.Gen.(list_size (int_range 0 100) (option (int_range 0 99))) in
  qtest "tqueue matches Queue model" gen (fun ops ->
      let _, p, txn = fresh () in
      let q = Tqueue.make p in
      let model = Queue.create () in
      List.for_all
        (fun op ->
          match op with
          | Some v ->
              Txn.atomically txn (fun t -> Tqueue.enqueue t q v);
              Queue.push v model;
              true
          | None ->
              let got = Txn.atomically txn (fun t -> Tqueue.dequeue t q) in
              let expected = Queue.take_opt model in
              got = expected)
        ops
      && Tqueue.peek_to_list q = List.of_seq (Queue.to_seq model))

let () =
  Alcotest.run "partstm_structures"
    [
      ( "tarray",
        [
          Alcotest.test_case "basics" `Quick test_array_basics;
          Alcotest.test_case "swap and fold" `Quick test_array_swap_and_fold;
          Alcotest.test_case "validation" `Quick test_array_validation;
        ] );
      ( "set_battery",
        List.map
          (fun (name, maker) -> Alcotest.test_case (name ^ " unit battery") `Quick (set_unit_battery maker))
          all_set_makers
        @ List.map (fun (name, maker) -> set_model_test name maker) all_set_makers
        @ List.map (fun (name, maker) -> set_concurrent_test name maker) all_set_makers );
      ( "trbtree",
        [
          Alcotest.test_case "values" `Quick test_rbtree_values;
          Alcotest.test_case "delete shapes" `Quick test_rbtree_delete_shapes;
          Alcotest.test_case "fold order" `Quick test_rbtree_fold_order;
          prop_rbtree_random_ops_invariants;
        ] );
      ( "tskiplist",
        [
          Alcotest.test_case "deterministic levels" `Quick test_skiplist_levels_deterministic;
          Alcotest.test_case "level distribution" `Quick test_skiplist_level_distribution;
        ] );
      ( "tqueue",
        [ Alcotest.test_case "fifo" `Quick test_queue_fifo; prop_queue_matches_model ] );
    ]
