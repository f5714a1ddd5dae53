(** Execution-environment hook: routes STM engine events either to no-ops
    (real-domain execution) or to the virtual-time simulator. *)

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

val charge : event -> unit
(** Report an engine event to the installed hook.  With none installed it
    makes no indirect call: [Backoff n] spins [n] [Domain.cpu_relax] and
    every other event is a no-op. *)

val relax : unit -> unit
(** Spin-wait pause. [Domain.cpu_relax] by default; a 1-cycle yield under the
    simulator. *)

val critical : (unit -> unit) -> unit
(** Run an engine phase that must not be interrupted by fault injection
    (e.g. the commit publish/release sequence). Identity by default; the
    simulator environment installs a kill mask. *)

val install :
  ?critical:((unit -> unit) -> unit) ->
  charge:(event -> unit) ->
  relax:(unit -> unit) ->
  unit ->
  unit
(** Replace the hooks; [charge] then reaches the installed hook for every
    event. Must not be called while workers are running. *)

val reset : unit -> unit
(** Restore the domain-mode defaults. *)
