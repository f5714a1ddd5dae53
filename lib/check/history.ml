(* Transaction-history recorder: the concrete sink behind
   [Engine.recorder].  Events are appended in real-time order; under the
   deterministic simulator that order is total, under domains a mutex
   imposes one.  The recorder is attached around a run and the collected
   stream is fed to {!Oracle.check}. *)

open Partstm_stm

type event =
  | Begin of { txn : int; rv : int }
  | Read of { txn : int; region : int; slot : int; version : int }
  | Write of { txn : int; region : int; slot : int }
  | Commit of { txn : int; stamp : int }
  | Abort of { txn : int }
  | Generation of { region : int; version : int }

type t = {
  mutable events : event list;  (* newest first *)
  mutable count : int;
  mutex : Mutex.t;
  mutable tap : int option;  (* [Engine.add_tap] handle once attached *)
}

let create () = { events = []; count = 0; mutex = Mutex.create (); tap = None }

let push t event =
  Mutex.lock t.mutex;
  t.events <- event :: t.events;
  t.count <- t.count + 1;
  Mutex.unlock t.mutex

(* The oracle needs only the core history events; the tracing extensions
   (conflict causes, lock-wait spins, commit-begin) stay no-ops here — they
   are the [lib/obs] taps' concern. *)
let recorder t =
  {
    Engine.null_recorder with
    Engine.rec_begin = (fun ~txn ~worker:_ ~rv -> push t (Begin { txn; rv }));
    rec_read = (fun ~txn ~region ~slot ~version -> push t (Read { txn; region; slot; version }));
    rec_write = (fun ~txn ~region ~slot -> push t (Write { txn; region; slot }));
    rec_commit = (fun ~txn ~stamp ~reads:_ ~writes:_ ~region:_ -> push t (Commit { txn; stamp }));
    rec_abort = (fun ~txn ~reads:_ ~writes:_ ~region:_ -> push t (Abort { txn }));
    rec_generation = (fun ~region ~version -> push t (Generation { region; version }));
  }

(* One tap among possibly several: a tracer attached to the same engine
   keeps observing the same run (exercised by the fan-out tests). *)
let attach t engine =
  if t.tap <> None then invalid_arg "History.attach: already attached";
  t.tap <- Some (Engine.add_tap engine (recorder t))

let events t = List.rev t.events
let length t = t.count

let clear t =
  Mutex.lock t.mutex;
  t.events <- [];
  t.count <- 0;
  Mutex.unlock t.mutex

let pp_event ppf = function
  | Begin { txn; rv } -> Fmt.pf ppf "begin t%d rv=%d" txn rv
  | Read { txn; region; slot; version } -> Fmt.pf ppf "read t%d r%d/%d v=%d" txn region slot version
  | Write { txn; region; slot } -> Fmt.pf ppf "write t%d r%d/%d" txn region slot
  | Commit { txn; stamp } -> Fmt.pf ppf "commit t%d stamp=%d" txn stamp
  | Abort { txn } -> Fmt.pf ppf "abort t%d" txn
  | Generation { region; version } -> Fmt.pf ppf "generation r%d base=%d" region version
