(* R-P1: descriptor per-access cost regression gate (DESIGN.md §3.1,
   "descriptor indexing").

   Host-time per-access cost by descriptor set size S, measured on one
   thread with the direct Txn API, for the four descriptor lookups that
   would cost O(S) per access without the indexes:

     inv-read     S invisible reads of distinct-slot tvars, read-only —
                  every read deduplicates against the read set (a Bloom
                  word and a backward scan up to [Txn.dedup_scan_max]
                  entries, an Intmap probe beyond);
     vis-read     S visible reads of distinct-slot tvars — every read asks
                  [holds_visible];
     vis-write    S visible reads then S writes — every acquire looks up
                  its own visible hold;
     wr-validate  S invisible reads + S self-locking writes, then a forced
                  timestamp extension — validation resolves each
                  self-locked entry's pre-lock word.

   S runs over 8, 16 ([mixed]'s read-set size), the two sizes on either
   side of the read set's scan-to-index switch, 64 and 512.  The
   per-access cost must stay flat: its ratio to the cost at S = 8 must not
   exceed [max_growth] at any size on any path.  A linear scan of the
   whole set measured 4.5–11.8x here.  With int-keyed logs, 8 alternating
   full runs against the Intmap-per-read parent on a 2-vCPU shared VM
   measured, best of 8: inv-read 39 ns/access at S = 8 (parent 52),
   vis-read 59 (67), vis-write 71 (79), wr-validate 72 (85); growth
   0.5–1.8x at every size.  (Ratios of per-access costs are robust to the
   absolute speed of a shared box.) *)

open Partstm_stm
open Partstm_core
open Partstm_harness

let max_growth = 2.5

(* Allocate tvars until [count] of them map to pairwise-distinct lock-table
   slots.  Distinct slots make per-access costs comparable across set sizes
   (no entry collapses into another's orec). *)
let distinct_slot_tvars partition ~count =
  let table = (Partition.region partition).Region.config.Region.table in
  let seen = Hashtbl.create (2 * count) in
  let out = ref [] in
  let n = ref 0 and attempts = ref 0 in
  while !n < count do
    incr attempts;
    if !attempts > 1000 * count then failwith "R-P1: cannot find distinct-slot tvars";
    let tv = Partition.tvar partition 0 in
    let slot = Lock_table.slot_of_id table tv.Tvar.id in
    if not (Hashtbl.mem seen slot) then begin
      Hashtbl.add seen slot ();
      out := tv :: !out;
      incr n
    end
  done;
  Array.of_list (List.rev !out)

type scenario = {
  sc_name : string;
  sc_mode : Mode.t;
  sc_ops : int -> int;  (* accesses per transaction at set size S *)
  sc_run : txn:Txn.t -> helper:Txn.t -> tvars:int Tvar.t array -> extra:int Tvar.t -> unit;
}

let fine = 16 (* granularity_log2: 65536 slots, so distinct slots are easy *)

let scenarios =
  [
    {
      sc_name = "inv-read";
      sc_mode = Mode.make ~visibility:Mode.Invisible ~granularity_log2:fine ();
      sc_ops = (fun s -> s);
      sc_run =
        (fun ~txn ~helper:_ ~tvars ~extra:_ ->
          Txn.atomically txn (fun t -> Array.iter (fun tv -> ignore (Txn.read t tv)) tvars));
    };
    {
      sc_name = "vis-read";
      sc_mode = Mode.make ~visibility:Mode.Visible ~granularity_log2:fine ();
      sc_ops = (fun s -> s);
      sc_run =
        (fun ~txn ~helper:_ ~tvars ~extra:_ ->
          Txn.atomically txn (fun t -> Array.iter (fun tv -> ignore (Txn.read t tv)) tvars));
    };
    {
      sc_name = "vis-write";
      sc_mode = Mode.make ~visibility:Mode.Visible ~granularity_log2:fine ();
      sc_ops = (fun s -> 2 * s);
      sc_run =
        (fun ~txn ~helper:_ ~tvars ~extra:_ ->
          Txn.atomically txn (fun t ->
              Array.iter (fun tv -> ignore (Txn.read t tv)) tvars;
              Array.iter (fun tv -> Txn.write t tv 1) tvars));
    };
    {
      sc_name = "wr-validate";
      sc_mode = Mode.make ~visibility:Mode.Invisible ~granularity_log2:fine ();
      sc_ops = (fun s -> 2 * s + 1);
      sc_run =
        (fun ~txn ~helper ~tvars ~extra ->
          Txn.atomically txn (fun t ->
              Array.iter (fun tv -> ignore (Txn.read t tv)) tvars;
              Array.iter (fun tv -> Txn.write t tv 1) tvars;
              (* A concurrent commit moves the clock past our snapshot; the
                 next read then forces a timestamp extension, whose
                 validation must resolve every self-locked read entry
                 against the lock set.  [extra]'s slot is distinct from
                 every locked slot, so the helper never conflicts. *)
              Txn.atomically helper (fun h -> Txn.write h extra (Txn.read h extra + 1));
              ignore (Txn.read t extra)));
    };
  ]

(* One scenario's transaction at set size S, ready to time, with its
   repetitions per batch and accesses per call. *)
type point = { set_size : int; body : unit -> unit; reps : int; ops : int }

let prepare (cfg : Bench_config.t) scenario ~set_size =
  let system = System.create ~max_workers:8 () in
  let partition = System.partition system ~mode:scenario.sc_mode "p1-cost" in
  let tvars = distinct_slot_tvars partition ~count:(set_size + 1) in
  let extra = tvars.(set_size) in
  let tvars = Array.sub tvars 0 set_size in
  let txn = System.descriptor system ~worker_id:0 in
  let helper = System.descriptor system ~worker_id:1 in
  let body () = scenario.sc_run ~txn ~helper ~tvars ~extra in
  body ();
  (* warm-up *)
  let budget = if cfg.Bench_config.quick then 20_000 else 100_000 in
  { set_size; body; reps = max 3 (budget / set_size); ops = scenario.sc_ops set_size }

(* Best-of-batches ns per access at each point.  Each batch times every
   set size in turn, so a slow spell on a shared box slows neighbouring
   sizes of one batch rather than every batch of a single size (which
   would inflate that size's growth ratio alone); interference only ever
   slows a batch down, so the best batch per size is kept. *)
let measure points =
  let best = Array.make (Array.length points) infinity in
  for _ = 1 to 3 do
    Array.iteri
      (fun i p ->
        let t0 = Unix.gettimeofday () in
        for _ = 1 to p.reps do
          p.body ()
        done;
        let dt = Unix.gettimeofday () -. t0 in
        best.(i) <- Float.min best.(i) (dt /. float_of_int (p.reps * p.ops) *. 1e9))
      points
  done;
  Array.to_list (Array.mapi (fun i p -> (p.set_size, best.(i))) points)

(* -- Driver ---------------------------------------------------------------- *)

let run (cfg : Bench_config.t) =
  Bench_config.section "R-P1: descriptor per-access cost vs set size";
  let lo = 8 in
  let sizes = [ lo; 16; Txn.dedup_scan_max; Txn.dedup_scan_max + 1; 64; 512 ] in
  List.iter
    (fun scenario ->
      let costs =
        measure (Array.of_list (List.map (fun s -> prepare cfg scenario ~set_size:s) sizes))
      in
      let figure =
        Figure.create
          ~id:(Printf.sprintf "exp-p1-%s" scenario.sc_name)
          ~title:(Printf.sprintf "R-P1 %s: per-access cost vs set size" scenario.sc_name)
          ~xlabel:"set size" ~ylabel:"ns/access"
      in
      Figure.add_series figure ~label:"ns/access"
        (List.map (fun (s, c) -> (float_of_int s, c)) costs);
      Bench_config.emit cfg figure;
      let base = List.assoc lo costs in
      let growths = List.map (fun (s, c) -> (s, c /. base)) (List.tl costs) in
      Printf.printf "%-12s %.0f ns/access at %d; growth %s (gate <= %.1fx)\n" scenario.sc_name base
        lo
        (String.concat ", "
           (List.map (fun (s, g) -> Printf.sprintf "%.2fx at %d" g s) growths))
        max_growth;
      List.iter
        (fun (s, g) ->
          if g > max_growth then
            failwith
              (Printf.sprintf
                 "R-P1 (%s): per-access cost grew %.2fx from %d to %d entries (gate %.1fx)"
                 scenario.sc_name g lo s max_growth))
        growths)
    scenarios
