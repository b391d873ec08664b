(* Order statistics for the benchmark's samples. *)

(* Nearest-rank percentile of an unsorted sample: the smallest value with
   at least [p]% of the sample at or below it. *)
let percentile xs p =
  let n = Array.length xs in
  if n = 0 then invalid_arg "Stat.percentile: empty sample";
  let s = Array.copy xs in
  Array.sort Float.compare s;
  let rank = int_of_float (Float.ceil (p /. 100. *. float_of_int n)) in
  s.(max 0 (min (n - 1) (rank - 1)))

let median xs = percentile xs 50.

(* The nearest-rank median of ints. Unlike {!percentile}, whose sort
   boxes floats as it compares them, it allocates the same words whatever
   the values' order: the benchmark takes it between rounds, where a
   timing-dependent allocation would make the heap differ between runs. *)
let median_int xs =
  if Array.length xs = 0 then invalid_arg "Stat.median_int: empty sample";
  let s = Array.copy xs in
  Array.sort Int.compare s;
  s.((Array.length s - 1) / 2)

(* Samples strictly above the nearest-rank [p]th percentile's rank. *)
let beyond ~n p = n - int_of_float (Float.ceil (p /. 100. *. float_of_int n))

(* A percentile is reported only when at least ten samples lie beyond it:
   p99 needs 1000 samples. *)
let reportable ~n p = beyond ~n p >= 10

let floats_of_ints a = Array.map float_of_int a

(* [num / den], 0 when nothing was counted. *)
let ratio num den = if den = 0 then 0. else float_of_int num /. float_of_int den
