(* Per-region concurrency-control configuration: the tuning knobs the
   paper adjusts per partition (read visibility and conflict-detection
   granularity), the update strategy — TinySTM's other major design axis
   (write-back vs. write-through) — and, since the protocol subsystem
   (DESIGN.md §10), the concurrency-control protocol itself
   (single-version / multi-version / commit-time-locking). *)

type read_visibility = Invisible | Visible

type update_strategy =
  | Write_back  (* buffer writes, publish at commit: cheap aborts *)
  | Write_through  (* write in place under the lock, undo on abort: cheap commits *)

type t = {
  visibility : read_visibility;
  granularity_log2 : int;
      (* log2 of the number of orecs in the region's lock table: 0 is
         whole-region (coarsest) conflict detection, larger values approach
         per-location detection. *)
  update : update_strategy;
  protocol : Protocol.t;
}

let make ?(visibility = Invisible) ?(granularity_log2 = 10) ?(update = Write_back)
    ?(protocol = Protocol.default) () =
  { visibility; granularity_log2; update; protocol }

let default = make ()

let granularity_min = 0
let granularity_max = 16

(* Composition rule (see lib/stm/protocol.ml): the multi-version and
   commit-time-lock read paths assume invisible readers and commit-time
   publication.  Visible readers would bypass the snapshot rule, and
   write-through's in-place stores would be observed by readers that
   never consult orecs. *)
let owns_read_path = function
  | Protocol.Single_version -> false
  | Protocol.Multi_version _ | Protocol.Commit_time_lock -> true

let with_protocol protocol t =
  if owns_read_path protocol then { t with protocol; visibility = Invisible; update = Write_back }
  else { t with protocol }

let validate t =
  if t.granularity_log2 < granularity_min || t.granularity_log2 > granularity_max then
    invalid_arg "Mode.validate: granularity_log2 out of range";
  Protocol.validate t.protocol;
  if owns_read_path t.protocol then begin
    if t.visibility <> Invisible then
      invalid_arg "Mode.validate: multi-version/commit-time-lock require invisible reads";
    if t.update <> Write_back then
      invalid_arg "Mode.validate: multi-version/commit-time-lock require write-back updates"
  end

let visibility_to_string = function Invisible -> "invisible" | Visible -> "visible"
let update_to_string = function Write_back -> "wb" | Write_through -> "wt"

let pp ppf t =
  Fmt.pf ppf "%s/g%d%s%s" (visibility_to_string t.visibility) t.granularity_log2
    (match t.update with Write_back -> "" | Write_through -> "/wt")
    (match t.protocol with Protocol.Single_version -> "" | p -> "/" ^ Protocol.to_string p)

let equal a b =
  a.visibility = b.visibility && a.granularity_log2 = b.granularity_log2 && a.update = b.update
  && Protocol.equal a.protocol b.protocol

(* -- String round-trip (the CLI's --mode flag, mirroring Cm.of_string) ----

   Canonical form is fully explicit: "invisible/g10/wb/sv".  [of_string]
   also accepts the abbreviated [pp] rendering (omitted fields take the
   canonical defaults), so any mode the CLI ever printed parses back. *)

let to_string t =
  Printf.sprintf "%s/g%d/%s/%s" (visibility_to_string t.visibility) t.granularity_log2
    (update_to_string t.update) (Protocol.to_string t.protocol)

let visibility_of_string = function
  | "invisible" | "inv" -> Ok Invisible
  | "visible" | "vis" -> Ok Visible
  | s -> Error (Printf.sprintf "%S: expected invisible or visible" s)

let update_of_string = function
  | "wb" | "write-back" -> Ok Write_back
  | "wt" | "write-through" -> Ok Write_through
  | s -> Error (Printf.sprintf "%S: expected wb or wt" s)

let of_string s =
  let ( let* ) = Result.bind in
  let granularity_of_string g =
    match Scanf.sscanf_opt g "g%d%!" Fun.id with
    | Some n when n >= granularity_min && n <= granularity_max -> Ok n
    | Some _ -> Error (Printf.sprintf "%S: granularity out of [%d, %d]" g granularity_min granularity_max)
    | None -> Error (Printf.sprintf "%S: expected gN (e.g. g10)" g)
  in
  let* visibility, rest =
    match String.split_on_char '/' s with
    | v :: rest ->
        let* visibility = visibility_of_string v in
        Ok (visibility, rest)
    | [] -> Error "empty mode"
  in
  let* granularity_log2, rest =
    match rest with
    | g :: rest ->
        let* granularity = granularity_of_string g in
        Ok (granularity, rest)
    | [] -> Ok (default.granularity_log2, [])
  in
  (* The remaining fields are optional and order-tolerant between the [pp]
     form (protocol directly after granularity when update is write-back)
     and the canonical form (update then protocol). *)
  let* update, protocol =
    let rec consume update protocol = function
      | [] -> Ok (update, protocol)
      | part :: rest -> (
          match update_of_string part with
          | Ok u -> (
              match update with
              | None -> consume (Some u) protocol rest
              | Some _ -> Error (Printf.sprintf "%S: duplicate update strategy" s))
          | Error _ -> (
              match Protocol.of_string part with
              | Ok p -> (
                  match protocol with
                  | None -> consume update (Some p) rest
                  | Some _ -> Error (Printf.sprintf "%S: duplicate protocol" s))
              | Error _ ->
                  Error
                    (Printf.sprintf "%S: expected update strategy (wb|wt) or protocol (sv|mvN|ctl)"
                       part)))
    in
    consume None None rest
  in
  let t =
    {
      visibility;
      granularity_log2;
      update = Option.value update ~default:default.update;
      protocol = Option.value protocol ~default:default.protocol;
    }
  in
  match validate t with () -> Ok t | exception Invalid_argument m -> Error m
