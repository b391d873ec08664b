(* The storm workload: a seeded list of fault schedules, certified back
   to back, alternating between the unsharded 2-safe nemesis pipeline
   ([Check.Explorer.run]) and a 2-shard 2-safe deployment with a
   cross-shard 2PC every second transaction ([Shard.Shard_check.run]).
   The list is generated from the round seed before anything runs; a
   slice is one storm of each pipeline. *)

open Groupsafe
module Sc = Shard.Shard_check

let technique = System.Dsm Dsm_replica.Two_safe_mode
let explorer = Check.Explorer.default_config ~nemesis:true technique
let sharded = Sc.default_config ~shards:2 ~cross_every:2 technique
let max_events = 4

type storm = Unsharded of Check.Schedule.t | Sharded of Check.Schedule.t

(* [n] storms, alternating pipelines, each pipeline drawing from its own
   stream; also the host time inside the generators. *)
let generate ~n ~seed =
  let rng = Sim.Rng.create seed in
  let rx = Sim.Rng.split rng and rs = Sim.Rng.split rng in
  let ns = ref 0 in
  let storms =
    List.init n (fun k ->
        let s, t =
          Clock.timed (fun () ->
              if k mod 2 = 0 then Unsharded (Check.Explorer.random_schedule explorer rx ~max_events)
              else Sharded (Sc.random_schedule sharded rs ~max_events))
        in
        ns := !ns + t;
        s)
  in
  (Array.of_list storms, !ns)

(* The sharded pipeline's merged registry is named [shard.<i>.<metric>];
   sums over every shard. *)
let strip_shard name =
  match String.split_on_char '.' name with
  | "shard" :: i :: rest when int_of_string_opt i <> None -> String.concat "." rest
  | _ -> name

let response_hist = "txn.commit_us"

type verdict = { failed : bool; counts : (string * int) list; resp : Obs.Histogram.t option }

let certify = function
  | Unsharded s ->
    let o = Check.Explorer.run explorer s in
    let r = o.Check.Explorer.report in
    {
      failed = o.Check.Explorer.failed;
      counts =
        [
          ("explorer.storms", 1);
          ("explorer.acked_commits", r.Safety_checker.acked_commits);
          ("explorer.lost", List.length r.Safety_checker.lost);
        ];
      resp = None;
    }
  | Sharded s ->
    let o = Sc.run sharded s in
    let reg = o.Sc.registry in
    let resp = Obs.Histogram.create () in
    List.iter
      (fun (name, v) ->
        match v with
        | Obs.Registry.V_hist h when strip_shard name = response_hist -> Obs.Histogram.merge_into ~into:resp h
        | _ -> ())
      (Obs.Registry.bindings reg);
    {
      failed = o.Sc.failed;
      counts =
        ("shard.storms", 1)
        :: ("shard.cross_acked", o.Sc.cross.Sc.cv_cross_acked)
        :: List.map (fun (name, v) -> (strip_shard name, v)) (Round.flatten reg);
      resp = Some resp;
    }

(* One slice certifies one storm of each pipeline: the two pipelines'
   storms differ in cost by ~2.5x, so one-storm slices would be bimodal
   with exactly half in each mode, and their median would jump between
   the modes from run to run. Larger slices would leave fewer samples
   beyond p99, where a burst of host noise then moves it. *)
let per_slice = 2

let round ?(ledger = false) ?gc ~kernel ~n ~seed () =
  let (storms, gen_ns), setup_ns = Clock.timed (fun () -> generate ~n ~seed) in
  let slices = n / per_slice in
  let slice_ns = Array.make slices 0 and ref_ns = Array.make slices 0 in
  let call_ns = Array.make n 0 in
  let verdicts = Array.make n { failed = false; counts = []; resp = None } in
  Option.iter (fun g -> ignore (Gctime.take g : int)) gc;
  let events0 = Sim.Engine.global_executed () in
  let promoted0 = (Gc.quick_stat ()).Gc.promoted_words in
  let minor0 = Gc.minor_words () in
  for k = 0 to slices - 1 do
    for i = k * per_slice to ((k + 1) * per_slice) - 1 do
      let t0 = Clock.now_ns () in
      verdicts.(i) <- certify storms.(i);
      call_ns.(i) <- Clock.now_ns () - t0
    done;
    slice_ns.(k) <- Array.fold_left ( + ) 0 (Array.sub call_ns (k * per_slice) per_slice);
    ref_ns.(k) <- Refk.sample kernel;
    Option.iter Gctime.poll gc
  done;
  let minor_words = Gc.minor_words () -. minor0 in
  let promoted_words = (Gc.quick_stat ()).Gc.promoted_words -. promoted0 in
  let events = Sim.Engine.global_executed () - events0 in
  let gc_ns = match gc with Some g -> Gctime.take g | None -> 0 in
  let failed = Array.fold_left (fun n v -> if v.failed then n + 1 else n) 0 verdicts in
  let resp = Obs.Histogram.create () in
  Array.iter (fun v -> Option.iter (Obs.Histogram.merge_into ~into:resp) v.resp) verdicts;
  (* The ledger splits the measured time between the two pipelines. *)
  let per_storm parity = Array.of_list (List.filteri (fun k _ -> k mod 2 = parity) (Array.to_list call_ns)) in
  {
    Round.setup_ns;
    slice_ns;
    ref_ns = Refk.local ref_ns;
    attempted = n;
    ops = n - failed;
    failed;
    broken = [];
    minor_words;
    promoted_words;
    counts = Round.merge_counts ([ ("events", events) ] :: Array.to_list (Array.map (fun v -> v.counts) verdicts));
    hists = [ (response_hist, resp) ];
    resp_ms = [||];
    timed_calls = [ ("check.schedule", n, gen_ns) ];
    per_call_ns = (if ledger then [ ("check.explorer", per_storm 0); ("check.shard", per_storm 1) ] else []);
    depths = [||];
    gc_ns;
  }
