(* Tests of the benchmark's own arithmetic and of the determinism its
   exact metrics rely on. *)

open Perfbench

let failures = ref 0

let check name ok =
  Printf.printf "%s %s\n" (if ok then "ok  " else "FAIL") name;
  if not ok then incr failures

(* A percentile is reportable only with ten samples beyond it. *)
let () =
  check "p99 of 1000 samples has 10 beyond it" (Stat.beyond ~n:1000 99. = 10 && Stat.reportable ~n:1000 99.);
  check "p99 of 999 samples is not reportable" (not (Stat.reportable ~n:999 99.));
  check "p50 of 20 samples is reportable" (Stat.reportable ~n:20 50.);
  let xs = Array.init 100 (fun i -> float_of_int (100 - i)) in
  check "nearest-rank p50 and p99" (Stat.percentile xs 50. = 50. && Stat.percentile xs 99. = 99.);
  check "median of one sample" (Stat.median [| 7. |] = 7.);
  check "the int median is the nearest-rank median"
    (Stat.median_int [| 4; 1; 3; 2 |] = 2 && Stat.median_int [| 5; 1; 4; 2; 3 |] = 3)

(* Host time is scaled by r0 / r: a host whose kernel ran twice as slow
   reads half as long, and the reference host reads unscaled. *)
let () =
  let r0 = Refk.r0_ns in
  check "normalise on the reference host" (Refk.normalise ~r_ns:r0 1234 = 1234.);
  check "normalise on a host twice as slow" (Refk.normalise ~r_ns:(2 * r0) 1000 = 500.);
  check "normalise on a host twice as fast" (Refk.normalise ~r_ns:(r0 / 2) 1000 = 2000.);
  let r = Refk.local (Array.init 80 (fun k -> if k < 40 then 100 else 200)) in
  check "each slice is scaled by the samples near it" (r.(0) = 100 && r.(23) = 100 && r.(56) = 200 && r.(79) = 200)

(* The reference kernel allocates nothing. *)
let () =
  let k = Refk.create () in
  ignore (Refk.sample k : int);
  let w0 = Gc.minor_words () in
  for _ = 1 to 10 do
    ignore (Refk.sample k : int)
  done;
  check "the reference kernel does not allocate" (Gc.minor_words () -. w0 = 0.)

(* Exact counts repeat: the same round seed gives the same fingerprint and
   the same allocation, and the ledger's probes do not change either. *)
let () =
  let kernel = Refk.create () in
  let spec =
    {
      Load.technique = Groupsafe.System.Dsm Groupsafe.Dsm_replica.Group_safe_mode;
      params = Workload.Params.table4;
      tuning = Gcs.Bcast_tuning.default;
      tps = 36.;
      measure = Sim.Sim_time.span_s 2.;
      slice = Sim.Sim_time.span_ms 500.;
    }
  in
  let a = Load.round ~kernel spec ~seed:11L in
  let b = Load.round ~kernel spec ~seed:11L in
  let c = Load.round ~ledger:true ~kernel spec ~seed:11L in
  let d = Load.round ~kernel spec ~seed:12L in
  check "a load round repeats bit for bit" (Round.fingerprint a = Round.fingerprint b);
  check "a load round allocates the same" (a.Round.minor_words = b.Round.minor_words);
  check "the ledger run reproduces a load round" (Round.fingerprint a = Round.fingerprint c);
  check "another seed gives another round" (Round.fingerprint a <> Round.fingerprint d);
  check "a fault-free load round passes its oracles" (a.Round.broken = [] && a.Round.failed = 0);
  let s1 = Storms.round ~kernel ~n:4 ~seed:5L () in
  let s2 = Storms.round ~ledger:true ~kernel ~n:4 ~seed:5L () in
  check "a storm round repeats bit for bit" (Round.fingerprint s1 = Round.fingerprint s2);
  check "every storm certifies clean" (s1.Round.failed = 0)

let () = if !failures > 0 then exit 1
