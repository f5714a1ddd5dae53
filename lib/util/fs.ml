(* Artifact file writes shared by the bench harness, telemetry, the metrics
   plane and the CLI. *)

let rec mkdir_p dir =
  if not (Sys.file_exists dir) then begin
    mkdir_p (Filename.dirname dir);
    (* A concurrent creator may win the race between the check and here. *)
    try Sys.mkdir dir 0o755 with Sys_error _ when Sys.file_exists dir -> ()
  end

(* A fresh [path.XXXXXX.tmp] beside [path].  Not [Filename.temp_file]:
   that creates the file 0o600, and the rename would carry the mode over to
   the artifact; 0o666 under the umask is what [open_out] gives. *)
let temp_names = Domain.DLS.new_key Random.State.make_self_init

let rec open_temp path attempts =
  let suffix = Random.State.bits (Domain.DLS.get temp_names) land 0xFFFFFF in
  let tmp = Printf.sprintf "%s.%06x.tmp" path suffix in
  try (tmp, open_out_gen [ Open_wronly; Open_creat; Open_excl; Open_binary ] 0o666 tmp)
  with Sys_error _ when attempts < 100 -> open_temp path (attempts + 1)

(* The bytes go to a temporary file in the target's directory, which is
   then renamed over [path]: a rename is atomic on POSIX filesystems, so an
   interrupted run never leaves a truncated artifact behind. *)
let write_file path contents =
  mkdir_p (Filename.dirname path);
  let tmp, oc = open_temp path 0 in
  try
    Fun.protect ~finally:(fun () -> close_out oc) (fun () -> output_string oc contents);
    Sys.rename tmp path
  with e ->
    (try Sys.remove tmp with Sys_error _ -> ());
    raise e
