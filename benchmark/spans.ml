(* Spans recorded from the benchmark's side of each call into the system,
   kept in preallocated per-lane arrays (one lane per domain, single
   writer) and written out as Chrome trace JSON after the round. *)

let names =
  [|
    "round"; "setup"; "warmup"; "window"; "op"; "attempt.aborted"; "attempt.commit";
    "tuner.step"; "tuner.switch"; "plane.sample";
  |]

let round = 0
let setup = 1
let warmup = 2
let window = 3
let op = 4
let aborted = 5
let commit = 6
let tuner_step = 7
let tuner_switch = 8
let plane_sample = 9

type lane = {
  name : int array;
  start : int array;
  stop : int array;
  mutable len : int;
  mutable dropped : int;
}

let create capacity =
  {
    name = Array.make capacity 0;
    start = Array.make capacity 0;
    stop = Array.make capacity 0;
    len = 0;
    dropped = 0;
  }

let record l name s e =
  if l.len < Array.length l.name then begin
    l.name.(l.len) <- name;
    l.start.(l.len) <- s;
    l.stop.(l.len) <- e;
    l.len <- l.len + 1
  end
  else l.dropped <- l.dropped + 1

(* A zero-length span is an instant event ([tuner.switch]). *)
let instant l name t = record l name t t

(* Self time per span name: a span's duration minus the part of it its
   children cover, children clipped to the parent. Adds each name's span
   count and self time into [count] and [self] (indexed like [names]) and
   returns the summed duration of the root spans, the lane's busy time as
   the spans see it: the self times add up to it exactly when every child
   nests inside its parent. *)
let add_self_times l ~count ~self =
  let order = Array.init l.len Fun.id in
  Array.stable_sort
    (fun a b ->
      if l.start.(a) <> l.start.(b) then compare l.start.(a) l.start.(b)
      else compare l.stop.(b) l.stop.(a))
    order;
  let covered = Array.make l.len 0 in
  let roots = ref 0 in
  let stack = ref [] in
  Array.iter
    (fun i ->
      if l.stop.(i) > l.start.(i) then begin
        while match !stack with top :: _ -> l.stop.(top) <= l.start.(i) | [] -> false do
          stack := List.tl !stack
        done;
        (match !stack with
        | parent :: _ ->
            covered.(parent) <- covered.(parent) + (min l.stop.(i) l.stop.(parent) - l.start.(i))
        | [] -> roots := !roots + (l.stop.(i) - l.start.(i)));
        stack := i :: !stack
      end)
    order;
  for i = 0 to l.len - 1 do
    let n = l.name.(i) in
    count.(n) <- count.(n) + 1;
    self.(n) <- self.(n) + (l.stop.(i) - l.start.(i) - covered.(i))
  done;
  !roots

(* Chrome trace_event JSON (array flavour): one thread per lane, "X"
   complete events and "i" instants, microsecond timestamps from [origin]. *)
let write_chrome path ~origin lanes =
  let oc = open_out_bin path in
  output_string oc "[\n";
  let first = ref true in
  let emit s =
    if not !first then output_string oc ",\n";
    first := false;
    output_string oc s
  in
  List.iter
    (fun (tid, label, l) ->
      emit
        (Printf.sprintf
           {|{"name":"thread_name","ph":"M","pid":1,"tid":%d,"args":{"name":"%s"}}|} tid label);
      for i = 0 to l.len - 1 do
        let ts = float_of_int (l.start.(i) - origin) /. 1e3 in
        let dur = l.stop.(i) - l.start.(i) in
        if dur = 0 then
          emit
            (Printf.sprintf {|{"name":"%s","ph":"i","s":"t","ts":%.3f,"pid":1,"tid":%d}|}
               names.(l.name.(i)) ts tid)
        else
          emit
            (Printf.sprintf {|{"name":"%s","ph":"X","ts":%.3f,"dur":%.3f,"pid":1,"tid":%d}|}
               names.(l.name.(i)) ts (float_of_int dur /. 1e3) tid)
      done)
    lanes;
  output_string oc "\n]\n";
  close_out oc
