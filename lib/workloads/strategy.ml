(* Experiment configurations: how a workload's partitions are configured and
   whether the runtime tuner is active.  These are the lines that appear in
   the paper-style figures (global single mode vs. per-partition static vs.
   per-partition dynamically tuned). *)

open Partstm_stm

type t =
  | Shared of Mode.t
      (* no partitioning at all: every structure lives in ONE region with one
         lock table — the unpartitioned TinySTM baseline the paper compares
         against (hot orecs alias cold data across structures) *)
  | Fixed of Mode.t  (* partitioned, but every partition pinned to one mode *)
  | Per_partition of { assignments : (string * Mode.t) list; fallback : Mode.t }
      (* expert static per-partition modes, tuner off *)
  | Tuned of Mode.t  (* start mode; runtime tuner adjusts per partition *)

let invisible = Mode.make ~visibility:Mode.Invisible ()
let visible = Mode.make ~visibility:Mode.Visible ()

let shared_invisible = Shared { invisible with Mode.granularity_log2 = 12 }
let shared_visible = Shared { visible with Mode.granularity_log2 = 12 }
let write_through = Mode.make ~update:Mode.Write_through ()
let global_invisible = Fixed invisible
let global_visible = Fixed visible
let tuned = Tuned invisible

let mode_for strategy partition_name =
  match strategy with
  | Shared mode -> mode
  | Fixed mode -> mode
  | Tuned mode -> mode
  | Per_partition { assignments; fallback } -> (
      match List.assoc_opt partition_name assignments with
      | Some mode -> mode
      | None -> fallback)

let is_shared = function Shared _ -> true | Fixed _ | Per_partition _ | Tuned _ -> false

let tunable = function Shared _ | Fixed _ | Per_partition _ -> false | Tuned _ -> true

let label = function
  | Shared mode -> Fmt.str "unpartitioned-%a" Mode.pp mode
  | Fixed mode -> Fmt.str "global-%a" Mode.pp mode
  | Per_partition _ -> "per-partition-static"
  | Tuned _ -> "partitioned-tuned"
