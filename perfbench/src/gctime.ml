(* Host time the OCaml runtime spends collecting, read in-process from its
   own event ring ([Runtime_events]): the sum of outermost minor
   collections and major slices. Only the ledger run switches the ring
   on; the runtime removes the ring file when the process exits. *)

type t = { cursor : Runtime_events.cursor; callbacks : Runtime_events.Callbacks.t; total_ns : int ref }

let collecting = function Runtime_events.EV_MINOR | Runtime_events.EV_MAJOR_SLICE -> true | _ -> false
let ts_ns ts = Int64.to_int (Runtime_events.Timestamp.to_int64 ts)

let start () =
  Runtime_events.start ();
  let total_ns = ref 0 and depth = ref 0 and opened = ref 0 in
  let runtime_begin _ ts phase =
    if collecting phase then begin
      if !depth = 0 then opened := ts_ns ts;
      incr depth
    end
  in
  let runtime_end _ ts phase =
    if collecting phase && !depth > 0 then begin
      decr depth;
      if !depth = 0 then total_ns := !total_ns + (ts_ns ts - !opened)
    end
  in
  let callbacks = Runtime_events.Callbacks.create ~runtime_begin ~runtime_end () in
  { cursor = Runtime_events.create_cursor None; callbacks; total_ns }

(* Collection time since the previous [take] (or [start]). Poll often
   enough that the ring does not wrap: once per slice is plenty. *)
let poll t = ignore (Runtime_events.read_poll t.cursor t.callbacks None : int)

let take t =
  poll t;
  let ns = !(t.total_ns) in
  t.total_ns := 0;
  ns
