(* Execution-environment hook.

   The STM engine runs in two environments: real OCaml domains, and simulated
   cores (effect-handler fibers scheduled in virtual time, see
   [Partstm_simcore.Sim]).  The engine reports what it is doing through
   [charge]; in domain mode the default implementations are (near) no-ops, in
   simulator mode [Partstm_simcore.Sim_env.install] replaces them with
   cost-charging yields.

   The hooks are process-global and must be installed before workers start;
   installing while transactions run is a programming error. *)

type event =
  | Step of int  (** generic work, n abstract cycles *)
  | Read_invisible
  | Read_visible  (** first visible read of an orec: atomic RMW *)
  | Lock_acquire
  | Write_entry
  | Commit_fixed
  | Validate_entry
  | Abort_restart
  | First_touch  (** partition in-flight registration *)
  | Backoff of int
      (** contention-manager delay of n units: n virtual cycles on the
          simulator, n [Domain.cpu_relax] calls on domains (~27 ns each on
          an x86 Xeon, so not cycles there) *)

(* In domain mode most events cost nothing extra (the hardware is doing the
   real work), but contention-manager backoff must actually delay. *)
let default_charge = function
  | Backoff n ->
      for _ = 1 to n do
        Domain.cpu_relax ()
      done
  | Step _ | Read_invisible | Read_visible | Lock_acquire | Write_entry | Commit_fixed
  | Validate_entry | Abort_restart | First_touch ->
      ()

let default_relax () = Domain.cpu_relax ()

(* Critical sections: engine phases that must not be interrupted by the
   simulator's fault-injection plane (e.g. the commit publish/release
   sequence, which is not abortable once started).  In domain mode this is
   the identity; under the simulator [Sim_env] installs a mask that defers
   injected kills until the section ends. *)
let default_critical f = f ()

let charge_ref = ref default_charge
let relax_ref = ref default_relax
let critical_ref = ref default_critical

let charge event = !charge_ref event
let relax () = !relax_ref ()
let critical f = !critical_ref f

let install ?(critical = default_critical) ~charge ~relax () =
  charge_ref := charge;
  relax_ref := relax;
  critical_ref := critical

let reset () =
  charge_ref := default_charge;
  relax_ref := default_relax;
  critical_ref := default_critical
