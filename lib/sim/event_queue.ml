(* A binary min-heap whose arrays hold only ints: per heap position the
   time in microseconds, the insertion sequence number (FIFO at equal
   times) and the number of the slot holding the payload. Payloads live in
   a separate slot table, written once when an event is added and cleared
   back to the dummy once when it is popped; slots freed by pops are
   reused through a stack. Sift-up and sift-down move a hole instead of
   swapping entries, so restoring the heap writes plain ints only — no
   write barrier per level — and [add] allocates nothing in the steady
   state, the only allocations being the amortised capacity doublings.

   The slot table is created with an immediate dummy (so it is an ordinary
   array even when ['a] is [float]: boxed floats are stored and fetched as
   pointers, never unboxed into a flat float array), and a freed slot is
   overwritten with that dummy so a popped value — and any closure it
   captures — becomes unreachable immediately.

   Keys [(time, seq)] are unique, so the pop order is fully determined by
   them: where a payload is stored cannot change it. *)

type 'a t = {
  mutable times : int array; (* heap position -> Sim_time.to_us *)
  mutable seqs : int array; (* heap position -> insertion order *)
  mutable slots : int array; (* heap position -> payload slot *)
  mutable values : Obj.t array; (* slot -> payload, dummy when free *)
  mutable free : int array; (* stack of freed slots below [used] *)
  mutable n_free : int;
  mutable used : int; (* slots ever handed out; [size + n_free = used] *)
  mutable size : int;
  mutable next_seq : int;
}

let dummy : Obj.t = Obj.repr ()

let create () =
  {
    times = [||];
    seqs = [||];
    slots = [||];
    values = [||];
    free = [||];
    n_free = 0;
    used = 0;
    size = 0;
    next_seq = 0;
  }

let length q = q.size
let is_empty q = q.size = 0

(* Does key [(t, s)] pop before the entry at heap position [i]? *)
let[@inline] before q t s i =
  let ti = Array.unsafe_get q.times i in
  t < ti || (t = ti && s < Array.unsafe_get q.seqs i)

(* Heap position [src] moves into the hole at [dst]. *)
let[@inline] move q ~src ~dst =
  Array.unsafe_set q.times dst (Array.unsafe_get q.times src);
  Array.unsafe_set q.seqs dst (Array.unsafe_get q.seqs src);
  Array.unsafe_set q.slots dst (Array.unsafe_get q.slots src)

let[@inline] fill q i t s slot =
  Array.unsafe_set q.times i t;
  Array.unsafe_set q.seqs i s;
  Array.unsafe_set q.slots i slot

(* Only called when every slot is live ([size = used = capacity]), so the
   free stack is empty and the new slots are simply the ones above [used]. *)
let grow q =
  let capacity = Array.length q.times in
  let capacity' = Stdlib.max 16 (2 * capacity) in
  let extend a fill = Array.append a (Array.make (capacity' - capacity) fill) in
  q.times <- extend q.times 0;
  q.seqs <- extend q.seqs 0;
  q.slots <- extend q.slots 0;
  q.values <- extend q.values dummy;
  q.free <- Array.make capacity' 0

(* The hole at [i] rises while the new key [(t, s)] pops before its parent. *)
let rec sift_up q i t s slot =
  if i > 0 then begin
    let parent = (i - 1) / 2 in
    if before q t s parent then begin
      move q ~src:parent ~dst:i;
      sift_up q parent t s slot
    end
    else fill q i t s slot
  end
  else fill q i t s slot

(* The hole at [i] sinks while a child pops before the key [(t, s)]. *)
let rec sift_down q i t s slot =
  let left = (2 * i) + 1 in
  if left >= q.size then fill q i t s slot
  else begin
    let right = left + 1 in
    let child =
      if
        right < q.size
        && before q (Array.unsafe_get q.times right) (Array.unsafe_get q.seqs right) left
      then right
      else left
    in
    if before q t s child then fill q i t s slot
    else begin
      move q ~src:child ~dst:i;
      sift_down q child t s slot
    end
  end

let add q ~time value =
  if q.size = Array.length q.times then grow q;
  let slot =
    if q.n_free > 0 then begin
      q.n_free <- q.n_free - 1;
      Array.unsafe_get q.free q.n_free
    end
    else begin
      let s = q.used in
      q.used <- s + 1;
      s
    end
  in
  Array.unsafe_set q.values slot (Obj.repr value);
  let seq = q.next_seq in
  q.next_seq <- seq + 1;
  let i = q.size in
  q.size <- i + 1;
  sift_up q i (Sim_time.to_us time) seq slot

let next_time_us q = if q.size = 0 then max_int else Array.unsafe_get q.times 0
let peek_time q = if q.size = 0 then None else Some (Sim_time.of_us q.times.(0))

(* Remove the root and return its payload: free its slot (cleared to the
   dummy — the space-leak guard), then sink the last entry from the root. *)
let remove_top q =
  let slot = q.slots.(0) in
  let v = q.values.(slot) in
  q.values.(slot) <- dummy;
  q.free.(q.n_free) <- slot;
  q.n_free <- q.n_free + 1;
  let last = q.size - 1 in
  q.size <- last;
  if last > 0 then sift_down q 0 q.times.(last) q.seqs.(last) q.slots.(last);
  v

let pop_value q =
  if q.size = 0 then invalid_arg "Event_queue.pop_value: empty queue";
  Obj.obj (remove_top q)

let pop q =
  if q.size = 0 then None
  else begin
    let t = q.times.(0) in
    let v = remove_top q in
    Some (Sim_time.of_us t, Obj.obj v)
  end

let clear q =
  q.times <- [||];
  q.seqs <- [||];
  q.slots <- [||];
  q.values <- [||];
  q.free <- [||];
  q.n_free <- 0;
  q.used <- 0;
  q.size <- 0

let heap_ok q =
  let ok = ref (q.size + q.n_free = q.used) in
  for i = 1 to q.size - 1 do
    if before q q.times.(i) q.seqs.(i) ((i - 1) / 2) then ok := false
  done;
  (* Each slot below [used] must be named exactly once: by a heap position
     if live, by a free-stack entry if free. *)
  let marks = Bytes.make (Array.length q.values) ' ' in
  let name s mark =
    if s < 0 || s >= q.used || Bytes.get marks s <> ' ' then ok := false else Bytes.set marks s mark
  in
  for i = 0 to q.size - 1 do
    name q.slots.(i) 'L'
  done;
  for i = 0 to q.n_free - 1 do
    name q.free.(i) 'F'
  done;
  for s = 0 to Bytes.length marks - 1 do
    let mark = Bytes.get marks s in
    if s < q.used && mark = ' ' then ok := false;
    (* A slot that is not live holds the dummy, or popped values leak. *)
    if mark <> 'L' && q.values.(s) != dummy then ok := false
  done;
  !ok
