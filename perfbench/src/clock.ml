(* The benchmark's clock: the monotonic clock in integer nanoseconds
   (microsecond-grained on a typical VM). Reading it allocates nothing. *)

let now_ns () = Int64.to_int (Monotonic_clock.now ())

(* [timed f] is [f ()] and the nanoseconds it took. *)
let timed f =
  let t0 = now_ns () in
  let v = f () in
  (v, now_ns () - t0)
