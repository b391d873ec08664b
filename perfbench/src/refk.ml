(* The reference kernel host time is normalised against.

   Host time on a shared VM swings by tens of percent from second to
   second with the neighbours' use of the shared cache and memory, and
   the simulator swings with it; an L1-resident loop does not. This
   kernel makes independent random reads over an 8 MiB int array — a
   working set larger than a core's private cache, read the way the
   simulator reads its heap — and allocates nothing, so its time follows
   the same host noise while staying independent of the program's heap.
   (An allocating kernel follows too, but its GC work grows with the
   heap the program leaves behind, so a change that grew the heap would
   read as a speed-up.)

   The kernel is sampled after every measured slice, so the samples
   cover the same seconds as the work they scale: measured on the
   reference host, identical rounds of work varied in time by up to 60%
   from one round to the next, a burst of calls at the start of each
   round followed that poorly (correlation 0.3 with the round's time),
   and samples taken between the round's slices followed it closely
   (0.84–0.93). A slice's host time [raw] is reported as
   [raw * r0_ns / r], where [r] is the median of the samples taken near
   it ({!local}). *)

let words = 1 lsl 20 (* 8 MiB of 8-byte ints *)
let reads = 25_000

(* About the median sample on the reference host (a quiet 2-vCPU VM): the
   constant every host time is scaled to. Changing it rescales every
   normalised metric, so it is fixed for the life of the benchmark. *)
let r0_ns = 250_000

(* The array, and the state of the address sequence: it runs on across
   calls, so each call reads lines the previous ones did not. *)
type t = { data : int array; mutable h : int }

let create () = { data = Array.init words (fun i -> i land 0xff); h = 12345 }

(* [reads] loads at addresses from a linear congruential sequence: no
   load depends on another, so they overlap as a program's independent
   heap reads do. *)
let random_reads k =
  let s = ref 0 and h = ref k.h in
  for _ = 1 to reads do
    h := ((!h * 1103515245) + 12345) land 0x3fffffff;
    s := !s + Array.unsafe_get k.data (!h land (words - 1))
  done;
  k.h <- !h;
  !s

(* One timed call, in nanoseconds. *)
let time k =
  let t0 = Clock.now_ns () in
  ignore (Sys.opaque_identity (random_reads k) : int);
  Clock.now_ns () - t0

(* One sample, in nanoseconds: an untimed call, then a timed one. The
   first call after a slice starts from the cache the slice left, and
   takes longer the more memory the slice touched (twice as long after
   8 MiB of unrelated traffic as after none); timing it would make a
   workload's own footprint part of its scale. *)
let sample k =
  ignore (Sys.opaque_identity (random_reads k) : int);
  time k

(* Slices on each side of a slice whose samples scale it. *)
let window = 16

(* [local samples] is, for each slice, the median of the samples taken
   within [window] slices of it: the [r] that slice is scaled by. The
   host's speed changes within a round, and a single sample is too
   noisy: over identical rounds of fig9-groupsafe and ceiling-batched,
   the spread of the normalised round times was 0.073 and 0.070 with
   this window, 0.075 and 0.105 with the whole round's median, and 0.095
   and 0.081 with each slice's own sample. *)
let local samples =
  let n = Array.length samples in
  Array.init n (fun k ->
      let lo = max 0 (k - window) and hi = min (n - 1) (k + window) in
      Stat.median_int (Array.sub samples lo (hi - lo + 1)))

(* The normalisation: [raw_ns] of host time read on a host where the
   kernel took [r_ns], expressed on the reference host. *)
let normalise ~r_ns raw_ns = float_of_int raw_ns *. float_of_int r0_ns /. float_of_int r_ns
