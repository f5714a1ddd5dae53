(* Bounded log that keeps the newest [capacity] entries.  The backing array
   grows by doubling up to [capacity] (a short log stays small), then the
   oldest slot is overwritten in place: every push past the cap is O(1)
   and bumps the exact [dropped] count. *)

type 'a t = {
  capacity : int;
  mutable data : 'a array;
  mutable start : int;  (* index of the oldest entry; 0 until the first eviction *)
  mutable length : int;
  mutable dropped : int;
}

let create ~capacity =
  if capacity < 1 then invalid_arg "Ring.create: capacity";
  { capacity; data = [||]; start = 0; length = 0; dropped = 0 }

let push t x =
  if t.length < t.capacity then begin
    if t.length = Array.length t.data then begin
      let bigger = Array.make (min t.capacity (max 8 (2 * t.length))) x in
      Array.blit t.data 0 bigger 0 t.length;
      t.data <- bigger
    end;
    t.data.(t.length) <- x;
    t.length <- t.length + 1
  end
  else begin
    t.data.(t.start) <- x;
    t.start <- (if t.start + 1 = t.capacity then 0 else t.start + 1);
    t.dropped <- t.dropped + 1
  end

let length t = t.length
let dropped t = t.dropped
let to_list t = List.init t.length (fun i -> t.data.((t.start + i) mod Array.length t.data))
