(** Artifact file writes. *)

val mkdir_p : string -> unit
(** [mkdir_p dir] creates [dir] and every missing parent (mode 0o755); a
    directory that already exists is left alone. Raises [Sys_error] when a
    component cannot be created. *)

val write_file : string -> string -> unit
(** [write_file path contents] creates [path]'s missing parent directories
    and replaces [path] with [contents] atomically: the bytes go to a
    temporary [*.tmp] file in the same directory which is then renamed over
    [path], so readers see the old file or the whole new one, never a
    truncated one. Raises [Sys_error] on I/O failure (the temporary file is
    removed). *)
