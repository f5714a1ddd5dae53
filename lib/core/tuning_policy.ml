(* The per-partition tuning heuristic (pure decision logic; the paper drives
   tuning "by runtime heuristics", Section 1).

   Two knobs, mirroring the paper's two motivating examples:

   Read visibility.  Visible reads make readers visible to writers, which
   "typically performs better on workloads with a high percentage of update
   transactions" (early conflict detection, no commit-time validation) "and
   worse for most other workloads" (an atomic RMW per read).  We switch to
   visible when the partition is update-heavy AND invisible reads are
   demonstrably wasting work (validation failures / extension traffic), and
   back to invisible when the partition is read-dominated.

   Conflict-detection granularity.  "Memory regions that suffer from high
   contention might benefit from coarse-grained detection ... while one
   would rather use fine-grained detection for non-contended regions."
   Coarse tables make conflicts cheap and early (one lock covers the
   region); fine tables avoid false conflicts.  We coarsen under sustained
   high conflict rates and refine when conflicts are rare.  One rule is
   driven by cost rather than contention: a fan-out partition, whose
   update transactions write more than [fanout_writes_hi] tvars each,
   pays a lock CAS and a release per orec it covers, and its readers log
   as many entries, so it coarsens while its abort rate is at or below
   [fanout_abort_hi] (feed's celebrity posts: 268 writes each).  Between
   [fanout_abort_hi] and [abort_rate_hi] lies a band where the
   granularity stays put, so this rule and the high-abort "large region
   refines" rule cannot undo each other; a fan-out partition above
   [abort_rate_hi] still refines (R-Y1's 8 simulated feed workers collide
   on timelines at an abort rate of 0.40), and a quiet fan-out partition
   is never refined.

   Concurrency-control protocol (DESIGN.md §10).  A read-dominated
   partition whose read-only transactions still pay validation (or abort
   outright) is moved to the multi-version protocol, whose history reads
   commit read-only transactions without validation; a small, update-heavy,
   high-conflict partition is moved to commit-time locking, whose reads
   touch no orec and whose single sequence lock amortises well over a tiny
   footprint.  Both revert to single-version when the signal that justified
   them decays.  Multi-version must also show that it pays: a partition
   whose read-only waste persists in multi-version leaves it (a failed
   trial), since it then pays the history upkeep for nothing.

   Every other direction uses hysteresis (hi/lo thresholds), and the
   tuner adds a cooldown after each switch.  The failed-trial exit fires
   on the very signal that enters multi-version, so hysteresis cannot
   stop it cycling; what does is the block ([mv_blocked]): after a failed
   trial the policy holds multi-version entry off until a period shows
   the waste at or below [mv_wasted_hi].  The tuner only stores the bit
   between periods.  With the block, the policy cannot oscillate on a
   steady workload.

   The thresholds below are module constants, not settings: no caller
   overrides them.  A sensitivity sweep edits them in a scratch copy, as
   R-F5's g12 column edited the static strategy. *)

open Partstm_stm

let min_attempts = 200 (* minimum sample size before deciding *)

(* update_ratio counts transactions that actually wrote (a failed intset add
   commits read-only), so 0.25 already indicates an update-heavy mix. *)
let update_ratio_hi = 0.25 (* switch to visible above this ... *)
let update_ratio_lo = 0.08 (* ... back to invisible below this *)
let wasted_validation_hi = 0.12 (* val_fails/attempts to justify visible *)
let abort_rate_hi = 0.35 (* coarsen above this conflict pressure ... *)
let writes_per_update_txn_hi = 3.0 (* ... if txns also lock several orecs *)
let small_region_tvars = 256 (* ... and the region is object-sized *)
let abort_rate_lo = 0.02 (* refine below this ... *)
let fanout_writes_hi = 64.0 (* ... unless update txns write more than this: coarsen ... *)
let fanout_abort_hi = 0.15 (* ... while the abort rate is at or below this *)
let write_through_abort_lo = 0.02 (* switch to write-through below this ... *)
let write_through_abort_hi = 0.15 (* ... and back to write-back above this *)
let granularity_step = 4 (* log2 slots added/removed per decision *)
let granularity_hi = 14 (* finest allowed (log2 slots); the coarsest is Mode.granularity_min *)
let mv_ro_ratio_hi = 0.80 (* multi-version above this read-only commit share ... *)
let mv_ro_ratio_lo = 0.50 (* ... back to single-version below this *)
let mv_wasted_hi = 0.02 (* (ro_aborts+val_fails)/attempts to justify multi-version *)
let mv_depth = 8 (* history depth proposed on a multi-version switch *)
let ctl_tvars_max = 64 (* commit-time locking only for regions this small *)
let ctl_abort_hi = 0.30 (* commit-time locking above this abort rate ... *)
let ctl_abort_lo = 0.05 (* ... back to single-version below this *)

(* What the tuner observed in a partition over one sampling period. *)
type observation = {
  delta : Region_stats.snapshot;
  current : Mode.t;
  tvars : int;
  mv_blocked : bool;  (* multi-version failed its last trial here *)
}

type decision = Keep | Switch of Mode.t

(* Structured explanation of one decision: the inputs the policy saw, the
   rules that fired ([w_triggered]) and the alternatives it considered but
   rejected, with the threshold comparison that rejected them
   ([w_rejected]).  Logged into telemetry and rendered by [partstm top];
   it carries no decision authority. *)
type why = {
  w_attempts : int;
  w_abort_rate : float;
  w_update_ratio : float;
  w_wasted_validation : float;
  w_writes_per_update_txn : float;
  w_ro_commit_ratio : float;
  w_ro_wasted : float;
  w_tvars : int;
  w_triggered : string list;
  w_rejected : string list;
}

(* One evaluated period's outcome: the decision, the block for the
   partition's next period, and the audit trail. *)
type verdict = { decision : decision; mv_blocked : bool; why : why }

let explain { delta; current; tvars; mv_blocked } =
  let attempts = Region_stats.attempts delta in
  let abort_rate = Region_stats.abort_rate delta in
  let update_ratio = Region_stats.update_txn_ratio delta in
  (* Only *failed* validations measure wasted work: successful extensions
     are cheap and would over-trigger the switch at low contention. *)
  let wasted =
    if attempts = 0 then 0.0
    else float_of_int delta.Region_stats.s_validation_fails /. float_of_int attempts
  in
  let update_commits = delta.Region_stats.s_commits - delta.Region_stats.s_ro_commits in
  let writes_per_update_txn =
    if update_commits = 0 then 0.0
    else float_of_int delta.Region_stats.s_writes /. float_of_int update_commits
  in
  let ro_ratio = Region_stats.ro_commit_ratio delta in
  let ro_wasted =
    if attempts = 0 then 0.0
    else
      float_of_int (delta.Region_stats.s_ro_aborts + delta.Region_stats.s_validation_fails)
      /. float_of_int attempts
  in
  let triggered = ref [] and rejected = ref [] in
  let trig fmt = Printf.ksprintf (fun m -> triggered := m :: !triggered) fmt in
  let rej fmt = Printf.ksprintf (fun m -> rejected := m :: !rejected) fmt in
  let why () =
    {
      w_attempts = attempts;
      w_abort_rate = abort_rate;
      w_update_ratio = update_ratio;
      w_wasted_validation = wasted;
      w_writes_per_update_txn = writes_per_update_txn;
      w_ro_commit_ratio = ro_ratio;
      w_ro_wasted = ro_wasted;
      w_tvars = tvars;
      w_triggered = List.rev !triggered;
      w_rejected = List.rev !rejected;
    }
  in
  if attempts < min_attempts then begin
    rej "sample too small: attempts %d < min_attempts %d" attempts min_attempts;
    { decision = Keep; mv_blocked; why = why () }
  end
  else begin
    let visibility =
      match current.Mode.visibility with
      | Mode.Invisible when update_ratio > update_ratio_hi && wasted > wasted_validation_hi ->
          trig "visible reads: update_ratio %.2f > %.2f and wasted validation %.3f > %.3f"
            update_ratio update_ratio_hi wasted wasted_validation_hi;
          Mode.Visible
      | Mode.Visible when update_ratio < update_ratio_lo ->
          trig "invisible reads: update_ratio %.2f < %.2f" update_ratio update_ratio_lo;
          Mode.Invisible
      | Mode.Invisible as v ->
          rej "visible reads: update_ratio %.2f <= %.2f or wasted validation %.3f <= %.3f"
            update_ratio update_ratio_hi wasted wasted_validation_hi;
          v
      | Mode.Visible as v ->
          rej "invisible reads: update_ratio %.2f >= %.2f (hysteresis)" update_ratio
            update_ratio_lo;
          v
    in
    let granularity =
      let g = current.Mode.granularity_log2 in
      (* The quiet-refine rule below must not fire on a fan-out
         partition, or the two would undo each other at the floor. *)
      let fan_out =
        writes_per_update_txn > fanout_writes_hi && abort_rate <= fanout_abort_hi
      in
      (* Coarsening only pays when transactions acquire several locks in this
         partition (one coarse lock replaces them), conflicts are frequent
         anyway, AND the region is object-sized (the paper's coarse detection
         "at the object level, or even at the granularity of the whole
         region"); coarsening a large structure would serialize it. *)
      if
        abort_rate > abort_rate_hi
        && writes_per_update_txn > writes_per_update_txn_hi
        && tvars <= small_region_tvars
        && g > Mode.granularity_min
      then begin
        trig "coarsen to g%d: abort_rate %.2f > %.2f, writes/update-txn %.1f > %.1f, tvars %d <= %d"
          (max Mode.granularity_min (g - granularity_step))
          abort_rate abort_rate_hi writes_per_update_txn writes_per_update_txn_hi tvars
          small_region_tvars;
        max Mode.granularity_min (g - granularity_step)
      end
      else if
        (* The dual rule: a *large* region with multi-write transactions
           under high conflict pressure is likely suffering false conflicts
           from orec aliasing — refine to separate the writers. *)
        abort_rate > abort_rate_hi
        && writes_per_update_txn > writes_per_update_txn_hi
        && tvars > small_region_tvars
        && g < granularity_hi
      then begin
        trig "refine to g%d: abort_rate %.2f > %.2f with large region (tvars %d > %d)"
          (min granularity_hi (g + granularity_step))
          abort_rate abort_rate_hi tvars small_region_tvars;
        min granularity_hi (g + granularity_step)
      end
      else if fan_out && g > Mode.granularity_min then begin
        trig "coarsen to g%d: fan-out writes/update-txn %.1f > %.1f at abort_rate %.3f <= %.2f"
          (max Mode.granularity_min (g - granularity_step))
          writes_per_update_txn fanout_writes_hi abort_rate fanout_abort_hi;
        max Mode.granularity_min (g - granularity_step)
      end
      else if fan_out then begin
        rej "granularity change: fan-out writes/update-txn %.1f > %.1f at the coarsest g%d"
          writes_per_update_txn fanout_writes_hi g;
        g
      end
      else if abort_rate < abort_rate_lo && g < granularity_hi then begin
        trig "refine to g%d: abort_rate %.3f < %.3f" (min granularity_hi (g + granularity_step))
          abort_rate abort_rate_lo;
        min granularity_hi (g + granularity_step)
      end
      else begin
        rej "granularity change: abort_rate %.3f within [%.3f, %.2f] band at g%d" abort_rate
          abort_rate_lo abort_rate_hi g;
        g
      end
    in
    (* Never refine past the point where the table dwarfs the traffic: a
       period that touched n locations needs at most ~4n slots. *)
    let granularity =
      let accesses = delta.Region_stats.s_reads + delta.Region_stats.s_writes in
      if granularity > current.Mode.granularity_log2 && accesses > 0 then begin
        let capped = min granularity (Partstm_util.Bits.ceil_log2 (4 * accesses)) in
        if capped < granularity then
          trig "refinement capped at g%d by period traffic (%d accesses)" capped accesses;
        capped
      end
      else granularity
    in
    (* Update strategy: write-through trades expensive aborts (undo) for
       free commits — profitable only when the partition writes and rarely
       aborts; write-back is the safe default under contention. *)
    let update =
      let writes_happen = Region_stats.update_txn_ratio delta > 0.01 in
      match current.Mode.update with
      | Mode.Write_back when writes_happen && abort_rate < write_through_abort_lo ->
          trig "write-through: abort_rate %.3f < %.3f with writes present" abort_rate
            write_through_abort_lo;
          Mode.Write_through
      | Mode.Write_through when abort_rate > write_through_abort_hi ->
          trig "write-back: abort_rate %.2f > %.2f" abort_rate write_through_abort_hi;
          Mode.Write_back
      | Mode.Write_back as u ->
          rej "write-through: abort_rate %.3f >= %.3f or no writes" abort_rate
            write_through_abort_lo;
          u
      | Mode.Write_through as u ->
          rej "write-back: abort_rate %.3f <= %.3f (hysteresis)" abort_rate write_through_abort_hi;
          u
    in
    (* Concurrency-control protocol.  Multi-version pays when the partition
       is read-dominated AND its read-only transactions demonstrably waste
       work under single-version (they abort, or burn failed validations);
       commit-time locking pays on a small, update-heavy partition under
       sustained conflict pressure, where one sequence lock replaces all
       orec traffic on the read side.  Each exits on the decayed form of
       its entry signal (hysteresis).  Multi-version also exits when its
       entry signal persists: the waste it was entered to cut is still
       there, and re-entry is then blocked ([mv_blocked]) until a period
       shows the waste gone. *)
    let ro_wasteful = ro_wasted > mv_wasted_hi in
    let mv_signal = ro_ratio > mv_ro_ratio_hi && ro_wasteful in
    let protocol =
      match current.Mode.protocol with
      | Protocol.Single_version ->
          if tvars <= ctl_tvars_max && abort_rate > ctl_abort_hi && update_ratio > update_ratio_hi
          then begin
            trig "commit-time locking: tvars %d <= %d, abort_rate %.2f > %.2f, update_ratio %.2f > %.2f"
              tvars ctl_tvars_max abort_rate ctl_abort_hi update_ratio update_ratio_hi;
            Protocol.Commit_time_lock
          end
          else if mv_signal && not mv_blocked then begin
            trig "multi-version (depth %d): ro_ratio %.2f > %.2f and ro wasted %.3f > %.3f"
              mv_depth ro_ratio mv_ro_ratio_hi ro_wasted mv_wasted_hi;
            Protocol.Multi_version { depth = mv_depth }
          end
          else begin
            rej "commit-time locking: tvars %d > %d or abort_rate %.2f <= %.2f or update_ratio %.2f <= %.2f"
              tvars ctl_tvars_max abort_rate ctl_abort_hi update_ratio update_ratio_hi;
            if mv_signal then
              rej "multi-version: blocked after a failed trial until ro wasted %.3f <= %.3f"
                ro_wasted mv_wasted_hi
            else
              rej "multi-version: ro_ratio %.2f <= %.2f or ro wasted %.3f <= %.3f" ro_ratio
                mv_ro_ratio_hi ro_wasted mv_wasted_hi;
            Protocol.Single_version
          end
      | Protocol.Multi_version _ as p ->
          if ro_ratio < mv_ro_ratio_lo then begin
            trig "leave multi-version: ro_ratio %.2f < %.2f" ro_ratio mv_ro_ratio_lo;
            Protocol.Single_version
          end
          else if ro_wasteful then begin
            (* The trial failed: multi-version was entered to cut exactly
               this waste, so keeping it only adds the history upkeep. *)
            trig "leave multi-version: it did not cut the waste (ro wasted %.3f > %.3f)"
              ro_wasted mv_wasted_hi;
            Protocol.Single_version
          end
          else begin
            rej "leave multi-version: ro_ratio %.2f >= %.2f (hysteresis)" ro_ratio mv_ro_ratio_lo;
            rej "leave multi-version: ro wasted %.3f <= %.3f (it pays)" ro_wasted mv_wasted_hi;
            p
          end
      | Protocol.Commit_time_lock ->
          if abort_rate < ctl_abort_lo || tvars > ctl_tvars_max then begin
            trig "leave commit-time locking: abort_rate %.3f < %.3f or tvars %d > %d" abort_rate
              ctl_abort_lo tvars ctl_tvars_max;
            Protocol.Single_version
          end
          else begin
            rej "leave commit-time locking: abort_rate %.2f >= %.3f (hysteresis)" abort_rate
              ctl_abort_lo;
            Protocol.Commit_time_lock
          end
    in
    let proposed =
      Mode.with_protocol protocol
        { current with Mode.visibility; granularity_log2 = granularity; update }
    in
    if proposed.Mode.visibility <> visibility || proposed.Mode.update <> update then
      trig "normalized to invisible/write-back: the %s protocol owns its read path"
        (Protocol.to_string protocol);
    (* A failed trial (leaving multi-version with the waste still there)
       sets the block; a period with the waste gone lifts it.  A period
       too small to judge returned above with the block as it was. *)
    let mv_blocked =
      ro_wasteful
      && (mv_blocked
         || (Protocol.is_multi_version current.Mode.protocol
            && not (Protocol.is_multi_version protocol)))
    in
    let decision = if Mode.equal proposed current then Keep else Switch proposed in
    { decision; mv_blocked; why = why () }
  end

let why_to_json w =
  Partstm_util.Json.Obj
    [
      ("attempts", Partstm_util.Json.Int w.w_attempts);
      ("abort_rate", Partstm_util.Json.Float w.w_abort_rate);
      ("update_ratio", Partstm_util.Json.Float w.w_update_ratio);
      ("wasted_validation", Partstm_util.Json.Float w.w_wasted_validation);
      ("writes_per_update_txn", Partstm_util.Json.Float w.w_writes_per_update_txn);
      ("ro_commit_ratio", Partstm_util.Json.Float w.w_ro_commit_ratio);
      ("ro_wasted", Partstm_util.Json.Float w.w_ro_wasted);
      ("tvars", Partstm_util.Json.Int w.w_tvars);
      ( "triggered",
        Partstm_util.Json.List (List.map (fun m -> Partstm_util.Json.String m) w.w_triggered) );
      ( "rejected",
        Partstm_util.Json.List (List.map (fun m -> Partstm_util.Json.String m) w.w_rejected) );
    ]
