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

(* Contention-manager backoff must actually delay in domain mode; every
   other event costs nothing extra there (the hardware does the real work). *)
let spin n =
  for _ = 1 to n do
    Domain.cpu_relax ()
  done

let default_relax () = Domain.cpu_relax ()

(* Critical sections: engine phases that must not be interrupted by the
   simulator's fault-injection plane (e.g. the commit publish/release
   sequence, which is not abortable once started).  In domain mode this is
   the identity; under the simulator [Sim_env] installs a mask that defers
   injected kills until the section ends. *)
let default_critical f = f ()

(* [installed] is set by [install] and cleared by [reset].  While it is
   clear, [charge] makes no indirect call: the engine calls it on every
   access, and on domains nothing is installed.  The flag alone gates the
   hook, so [reset] leaves [charge_ref] as it was. *)
let installed = ref false
let charge_ref = ref (fun (_ : event) -> ())
let relax_ref = ref default_relax
let critical_ref = ref default_critical

let charge event =
  if !installed then !charge_ref event
  else match event with Backoff n -> spin n | _ -> ()

let relax () = !relax_ref ()
let critical f = !critical_ref f

let install ?(critical = default_critical) ~charge ~relax () =
  charge_ref := charge;
  relax_ref := relax;
  critical_ref := critical;
  installed := true

let reset () =
  installed := false;
  relax_ref := default_relax;
  critical_ref := default_critical
