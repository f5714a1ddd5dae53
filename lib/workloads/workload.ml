(* The workload catalogue and the measured-run recipe shared by the CLI,
   the bench and the workload drivers. *)

open Partstm_core
open Partstm_harness

type t =
  | Workload : {
      name : string;
      setup : System.t -> strategy:Strategy.t -> 's;
      worker : 's -> Driver.ctx -> int;
      check : 's -> total_ops:int -> bool;
    }
      -> t

let make name setup config worker check =
  Workload
    {
      name;
      setup = (fun system ~strategy -> setup system ~strategy config);
      worker;
      check = (fun state ~total_ops:_ -> check state);
    }

let intset name config = make name Intset.setup config Intset.worker Intset.check

let all =
  [
    intset "intset-ll" (Intset.default_config Intset.Linked_list);
    intset "intset-sl" (Intset.default_config Intset.Skip_list);
    intset "intset-rb" (Intset.default_config Intset.Rb_tree);
    intset "intset-hs" (Intset.default_config Intset.Hash_set);
    make "mixed" Mixed.setup Mixed.default_config Mixed.worker Mixed.check;
    make "bank" Bank.setup Bank.default_config Bank.worker Bank.check;
    make "vacation" Vacation.setup Vacation.default_config Vacation.worker Vacation.check;
    make "kmeans" Kmeans.setup Kmeans.default_config Kmeans.worker Kmeans.check;
    make "genome" Genome.setup Genome.default_config Genome.worker Genome.check;
    make "labyrinth" Labyrinth.setup Labyrinth.default_config Labyrinth.worker Labyrinth.check;
    Workload
      {
        name = "granularity";
        setup =
          (fun system ~strategy -> Granularity.setup system ~strategy Granularity.default_config);
        worker = Granularity.worker;
        check = Granularity.check;
      };
    make "phased" Phased.setup Phased.default_config Phased.worker Phased.check;
  ]

let name (Workload w) = w.name
let find wanted = List.find_opt (fun w -> name w = wanted) all

let get wanted =
  match find wanted with Some w -> w | None -> invalid_arg ("Workload.get: " ^ wanted)

let strategies =
  [
    ("shared-inv", Strategy.shared_invisible);
    ("shared-vis", Strategy.shared_visible);
    ("inv", Strategy.global_invisible);
    ("vis", Strategy.global_visible);
    ("tuned", Strategy.tuned);
  ]

type verdict = [ `Passed | `Failed of string ]

(* [reason] is always present (empty when passed) so that re-running over an
   existing file through [Json.merge] can never leave a stale failure reason
   next to a now-passing status. *)
let checks_json checks =
  let open Partstm_util.Json in
  let verdict_json : verdict -> t = function
    | `Passed -> Obj [ ("status", String "passed"); ("reason", String "") ]
    | `Failed reason -> Obj [ ("status", String "failed"); ("reason", String reason) ]
  in
  Obj (List.map (fun (name, verdict) -> (name, verdict_json verdict)) checks)

type 's prepared = { system : System.t; state : 's; tuner : Tuner.t option }

let prepare ?contention_manager ?padded ?cooldown ~workers ~strategy setup =
  let system = System.create ~max_workers:(workers + 8) ?contention_manager ?padded () in
  let state = setup system ~strategy in
  Registry.reset_stats (System.registry system);
  let tuner = if Strategy.tunable strategy then Some (System.tuner ?cooldown system) else None in
  { system; state; tuner }
