(* The workloads, the run loop and the metrics (see ../README.md). *)

open Groupsafe
module St = Sim.Sim_time

(* Table 4 with storage an order of magnitude faster: the part-2 setup of
   the broadcast-ceiling study, where the broadcast engine rather than the
   2004 disks binds. *)
let fast_storage =
  {
    Workload.Params.table4 with
    Workload.Params.io_time_min = St.span_ms 0.4;
    io_time_max = St.span_ms 1.2;
    cpu_per_io = St.span_ms 0.1;
  }

type kind = Load of Load.spec | Storms of int  (** storms per round. *)

type workload = {
  name : string;
  kind : kind;
  round_s : float;
      (** host seconds one round takes on the reference host: a run of
          [--seconds s] measures [s / round_s] rounds, a fixed amount of
          work, so every exact metric is a function of the seed and [s]. *)
}

let group_safe = System.Dsm Dsm_replica.Group_safe_mode

let workloads =
  [
    {
      name = "fig9-groupsafe";
      kind =
        Load
          {
            Load.technique = group_safe;
            params = Workload.Params.table4;
            tuning = Gcs.Bcast_tuning.default;
            tps = 36.;
            measure = St.span_s 60.;
            slice = St.span_ms 500.;
          };
      round_s = 1.1;
    };
    {
      name = "eager-2pc";
      kind =
        Load
          {
            Load.technique = System.Two_pc;
            params = Workload.Params.table4;
            tuning = Gcs.Bcast_tuning.default;
            tps = 30.;
            measure = St.span_s 10.;
            slice = St.span_ms 100.;
          };
      round_s = 1.0;
    };
    {
      name = "ceiling-batched";
      kind =
        Load
          {
            Load.technique = group_safe;
            params = fast_storage;
            tuning = Gcs.Bcast_tuning.batched ();
            tps = 640.;
            measure = St.span_s 10.;
            slice = St.span_ms 50.;
          };
      round_s = 3.5;
    };
    { name = "storms-2safe"; kind = Storms 200; round_s = 1.0 };
  ]

let find name = List.find_opt (fun w -> w.name = name) workloads

let slices_per_round w =
  match w.kind with
  | Load s -> Load.slices s
  | Storms n -> n / Storms.per_slice

(* Rounds a run of [seconds] measures: at least 3, so set-up time is a
   median, and enough for 1000 slices, so p99 has 10 beyond it. The
   ledger run measures half as many, twice: untraced, then traced. *)
let rounds w ~seconds ~trace =
  if trace then max 3 (int_of_float (Float.round (seconds /. 2. /. w.round_s)))
  else
    let for_p99 = (1000 + slices_per_round w - 1) / slices_per_round w in
    max (max 3 for_p99) (int_of_float (Float.round (seconds /. w.round_s)))

(* Round [k]'s seed: a function of the workload seed only. *)
let round_seed seed k = Int64.add (Int64.mul (Int64.of_int seed) 7919L) (Int64.of_int k)

(* One round, from a collected heap, so that what the previous round left
   behind does not decide when this one collects. *)
let run_round ?ledger ?gc w ~kernel seed =
  Gc.full_major ();
  match w.kind with
  | Load spec -> Load.round ?ledger ?gc ~kernel spec ~seed
  | Storms n -> Storms.round ?ledger ?gc ~kernel ~n ~seed ()

(* ---- metrics ---- *)

type metric = { name : string; value : float; unit_ : string }

let m name unit_ value = { name; value = (if Float.is_finite value then value else 0.); unit_ }

type phase = {
  rounds : Round.t list;
  r_ns : int;
      (** median over the phase's slices of their [r]: what the unit
          probes, run after the rounds, are scaled by. Each slice is
          scaled by its own. *)
  raw_ns : int;  (** measured host time, raw. *)
  ops : int;
}

let phase rounds =
  let sum f = List.fold_left (fun n r -> n + f r) 0 rounds in
  {
    rounds;
    r_ns = Stat.median_int (Array.concat (List.map (fun r -> r.Round.ref_ns) rounds));
    raw_ns = sum (fun r -> Array.fold_left ( + ) 0 r.Round.slice_ns);
    ops = sum (fun r -> r.Round.ops);
  }

(* Round [r]'s slices, normalised, in ns. *)
let norm_slices r = Array.map2 (fun ns r_ns -> Refk.normalise ~r_ns ns) r.Round.slice_ns r.Round.ref_ns

let norm_setup r = Refk.normalise ~r_ns:r.Round.ref_ns.(0) r.Round.setup_ns
let norm_measured r = Array.fold_left ( +. ) 0. (norm_slices r)

(* The phase's measured host time, normalised, in seconds. *)
let measured_s p = List.fold_left (fun acc r -> acc +. norm_measured r) 0. p.rounds /. 1e9

let sumf p f = List.fold_left (fun acc r -> acc +. f r) 0. p.rounds
let counts p = Round.merge_counts (List.map (fun r -> r.Round.counts) p.rounds)

let merged_hist p name =
  let h = Obs.Histogram.create () in
  List.iter (fun r -> Option.iter (Obs.Histogram.merge_into ~into:h) (List.assoc_opt name r.Round.hists)) p.rounds;
  h

(* Upper end of the bracket holding the [q]-quantile; 0 when empty. *)
let hist_quantile h q = if Obs.Histogram.count h = 0 then 0 else snd (Obs.Histogram.quantile_bounds h q)

(* The [q]-quantile interpolated linearly by rank inside its bucket, so
   that it moves with the counts instead of snapping to bucket edges. *)
let hist_quantile_interp h q =
  let n = Obs.Histogram.count h in
  if n = 0 then 0.
  else begin
    let rank = max 1 (int_of_float (Float.ceil (q *. float_of_int n))) in
    let rec find below = function
      | [] -> float_of_int (Obs.Histogram.max_value h)
      | (lo, hi, c) :: rest ->
        if below + c >= rank then
          float_of_int lo +. (float_of_int (hi - lo) *. float_of_int (rank - below) /. float_of_int c)
        else find (below + c) rest
    in
    find 0 (Obs.Histogram.buckets h)
  end

let slices p = Array.concat (List.map (fun r -> r.Round.slice_ns) p.rounds)

(* Every slice of the phase, normalised, in ms. *)
let slices_ms p = Array.map (fun ns -> ns /. 1e6) (Array.concat (List.map norm_slices p.rounds))

let sim_metrics w p =
  let c = counts p in
  let get name = Option.value (List.assoc_opt name c) ~default:0 in
  match w.kind with
  | Load _ ->
    let resp = Array.concat (List.map (fun r -> r.Round.resp_ms) p.rounds) in
    let commits = get "metrics.commits" and aborts = get "metrics.aborts" in
    [
      m "sim_resp_ms_p50" "ms" (Stat.percentile resp 50.);
      m "sim_resp_ms_p99" "ms" (Stat.percentile resp 99.);
      m "sim_abort_rate" "share" (Stat.ratio aborts (commits + aborts));
    ]
  | Storms _ ->
    let h = merged_hist p Storms.response_hist in
    (* Storm transactions write disjoint items, so certification never
       aborts them; under faults the share that does not commit is the
       transactions a crashed delegate dropped or a fault aborted. *)
    let submitted = get "txn.submitted" in
    [
      m "sim_resp_ms_p50" "ms" (hist_quantile_interp h 0.5 /. 1e3);
      m "sim_resp_ms_p99" "ms" (hist_quantile_interp h 0.99 /. 1e3);
      m "sim_abort_rate" "share" (Stat.ratio (submitted - get "txn.committed") submitted);
    ]

let end_to_end w p ~peak_heap_words =
  let s = slices_ms p in
  let per_round f = Stat.median (Array.of_list (List.map f p.rounds)) in
  [
    m "setup_s" "s" (per_round (fun r -> norm_setup r /. 1e9));
    (* The median round: how often a round hits a costly protocol path
       (2PC's in-doubt WAL scans above all) varies from round seed to
       round seed, and a pooled rate would let one such round move it. *)
    m "ops_per_s" "1/s"
      (per_round (fun r -> float_of_int r.Round.ops /. (norm_measured r /. 1e9)));
    m "slice_ms_p50" "ms" (Stat.percentile s 50.);
    m "slice_ms_p99" "ms" (Stat.percentile s 99.);
    m "alloc_words_per_op" "words" (sumf p (fun r -> r.Round.minor_words) /. float_of_int p.ops);
    m "peak_heap_mb" "MB" (float_of_int (peak_heap_words * (Sys.word_size / 8)) /. 1e6);
  ]
  @ sim_metrics w p

(* ---- the ledger ---- *)

let timed_call p name =
  List.fold_left
    (fun (calls, ns) r ->
      match List.find_opt (fun (n, _, _) -> n = name) r.Round.timed_calls with
      | Some (_, c, t) -> (calls + c, ns + t)
      | None -> (calls, ns))
    (0, 0) p.rounds

let per_call p name =
  Array.concat (List.map (fun r -> Option.value (List.assoc_opt name r.Round.per_call_ns) ~default:[||]) p.rounds)

let median_or_zero a = if Array.length a = 0 then 0. else Stat.median (Stat.floats_of_ints a)

type ledger = { per_layer : metric list; components : (string * int * float) list  (** (layer, count, raw ns each) *) }

let per_layer w ~timed ~traced ~host =
  let c = counts traced in
  let get name = Option.value (List.assoc_opt name c) ~default:0 in
  let ops = traced.ops in
  let per_op n = Stat.ratio n ops in
  let un ns = ns *. float_of_int Refk.r0_ns /. float_of_int timed.r_ns in
  let params, tuning =
    match w.kind with
    | Load s -> (s.Load.params, s.Load.tuning)
    | Storms _ -> (Storms.sharded.Shard.Shard_check.params, Gcs.Bcast_tuning.default)
  in
  let servers = params.Workload.Params.servers in
  let depth = int_of_float (median_or_zero (Array.concat (List.map (fun r -> r.Round.depths) traced.rounds))) in
  (* Unit probes, raw ns per call. *)
  let queue_ns = Probes.queue_ns ~depth in
  let send_ns, events_per_msg = Probes.send_ns () in
  let d = Probes.delivery_ns tuning in
  let certify_ns = Probes.certify_ns params in
  let wal_codec_ns = Probes.wal_codec_ns params in
  let rounds = max 1 (List.length traced.rounds) in
  let wal_per_server = get "wal.records_total" / rounds / servers in
  let wal_scan_ns = Probes.wal_scan_ns params ~records:wal_per_server in
  let lock_ns = Probes.lock_ns params in
  let hist_add_ns = Probes.hist_add_ns () in
  let submits, submit_ns = timed_call traced "core.submit" in
  let submit_each = Stat.ratio submit_ns submits in
  let gen_calls, gen_ns = timed_call traced (match w.kind with Load _ -> "workload.gen" | Storms _ -> "check.schedule") in
  let gen_each = Stat.ratio gen_ns gen_calls in
  let hist_adds =
    List.fold_left (fun n (name, v) -> if String.ends_with ~suffix:"#n" name then n + v else n) 0 c
  in
  let wal_records = get "phase.wal_us#n" + get "2pc.prepare_force_us#n" + get "2pc.decision_flush_us#n" in
  let values = get "abcast.broadcasts" + get "e2e.broadcasts" in
  (* Exclusive (self) costs: a probe's time minus the part its own events
     and messages account for, which the sim and net terms already
     price. *)
  let net_self = Float.max 0. (send_ns -. (events_per_msg *. queue_ns)) in
  let gcs_self =
    Float.max 0. (d.Probes.delivery_ns -. (d.Probes.msgs_per_value *. send_ns) -. (d.Probes.events_per_value *. queue_ns))
  in
  let gc_ns = List.fold_left (fun n r -> n + r.Round.gc_ns) 0 traced.rounds in
  let components =
    [
      ("sim.event_queue", get "events", queue_ns);
      ("net.message", get "msgs", net_self);
      ("gcs.value", values, gcs_self);
      ("db.certify", get "phase.certify_us#n", certify_ns);
      ("db.wal_codec", wal_records, wal_codec_ns);
      ("db.lock_tx", (match w.kind with Load { Load.technique = System.Two_pc; _ } -> get "txn.submitted" | _ -> 0), lock_ns);
      ("obs.hist_add", hist_adds, hist_add_ns);
      ("core.submit", submits, submit_each);
      ("gc.collect", 1, float_of_int gc_ns);
    ]
  in
  let attributed = List.fold_left (fun acc (_, n, each) -> acc +. (float_of_int n *. each)) 0. components in
  let storms_ms name = un (median_or_zero (per_call traced name)) /. 1e6 in
  let per_layer =
    [
      m "sim.events_per_op" "count" (per_op (get "events"));
      m "sim.events_per_s" "1/s" (float_of_int (counts timed |> List.assoc_opt "events" |> Option.value ~default:0) /. measured_s timed);
      m "sim.queue_depth_p50" "count" (float_of_int depth);
      m "sim.queue_ns" "ns" (un queue_ns);
      m "net.msgs_per_op" "count" (per_op (get "msgs"));
      m "net.send_ns" "ns" (un send_ns);
      m "gcs.instances_per_op" "count" (per_op (get "log.accepts_sent"));
      m "gcs.batch_size_mean" "count" (Stat.ratio (get "abcast.batch_size#sum") (get "abcast.batch_size#n"));
      m "gcs.resends_per_op" "count"
        (per_op (get "log.accept_resends" + get "abcast.retransmit_ticks" + get "e2e.retransmit_ticks"));
      m "gcs.delivery_ns" "ns" (un d.Probes.delivery_ns);
      m "db.certify_per_op" "count" (per_op (get "phase.certify_us#n"));
      m "db.certify_ns" "ns" (un certify_ns);
      m "db.commit_share" "share" (Stat.ratio (get "txn.committed") (get "txn.submitted"));
      m "db.wal_records_per_op" "count" (per_op wal_records);
      m "db.wal_codec_ns" "ns" (un wal_codec_ns);
      m "db.wal_scan_ms" "ms" (un wal_scan_ns /. 1e6);
      m "db.lock_ns" "ns" (un lock_ns);
      m "store.disk_util_permille_p50" "permille"
        (float_of_int (hist_quantile (merged_hist traced "res.disk.util_permille") 0.5));
      m "core.ack_before_disk_share" "share" (Stat.ratio (get "txn.ack_before_disk") (get "txn.committed"));
      m "core.sim_wal_ms_p50" "ms" (float_of_int (hist_quantile (merged_hist traced "phase.wal_us") 0.5) /. 1e3);
      m "core.submit_ns" "ns" (un submit_each);
      m "workload.gen_ns" "ns" (match w.kind with Load _ -> un gen_each | Storms _ -> 0.);
      m "obs.hist_adds_per_op" "count" (per_op hist_adds);
      m "obs.hist_add_ns" "ns" (un hist_add_ns);
      m "shard.cross_share" "share" (Stat.ratio (get "xshard.cross_submitted") (get "txn.submitted"));
      m "shard.write_sub_failed" "count" (float_of_int (get "xshard.write_sub_failed"));
      m "check.schedule_us" "us" (match w.kind with Storms _ -> un gen_each /. 1e3 | Load _ -> 0.);
      m "check.explorer_ms_p50" "ms" (storms_ms "check.explorer");
      m "check.shard_ms_p50" "ms" (storms_ms "check.shard");
      m "gc.time_share" "share" (Stat.ratio gc_ns traced.raw_ns);
      m "gc.promoted_words_per_op" "words" (sumf timed (fun r -> r.Round.promoted_words) /. float_of_int timed.ops);
      m "host.ref_ms" "ms" (float_of_int timed.r_ns /. 1e6);
      m "host.raw_s" "s" (float_of_int timed.raw_ns /. 1e9);
      m "host.runq_wait_ms" "ms" (float_of_int host.Host.runq_ns /. 1e6);
      m "host.steal_ticks" "count" (float_of_int host.Host.steal);
      m "ledger.unattributed_share" "share" (1. -. (attributed /. float_of_int traced.raw_ns));
      m "ledger.trace_overhead" "share"
        ((float_of_int traced.ops /. measured_s traced) /. (float_of_int timed.ops /. measured_s timed) -. 1.);
    ]
  in
  { per_layer; components }

(* ---- a run ---- *)

type result = {
  correct : bool;
  attempted : int;
  failed : int;
  metrics : metric list;  (** the JSON line's: end-to-end, or per-layer when traced. *)
  report : metric list;  (** everything, for the text report. *)
  notes : string list;
}

let run w ~seed ~seconds ~trace =
  Parallel.Domain_pool.set_default_jobs 1;
  let kernel = Refk.create () in
  (* Reading /proc allocates strings whose length varies with the
     counters, so only the ledger run reads it: the timed run's heap must
     repeat bit for bit. *)
  let host0 = if trace then Some (Host.snapshot ()) else None in
  let k = rounds w ~seconds ~trace in
  let seeds = List.init k (round_seed seed) in
  let timed_rounds = List.map (run_round w ~kernel) seeds in
  let peak_heap_words = (Gc.quick_stat ()).Gc.top_heap_words in
  let timed = phase timed_rounds in
  let e2e = end_to_end w timed ~peak_heap_words in
  let notes = ref [] in
  let note fmt = Printf.ksprintf (fun s -> notes := s :: !notes) fmt in
  List.iteri
    (fun i r -> List.iter (fun b -> note "round %d: %s" i b) r.Round.broken)
    timed.rounds;
  let n_slices = Array.length (slices timed) in
  if (not trace) && not (Stat.reportable ~n:n_slices 99.) then note "only %d slices: p99 has fewer than 10 beyond it" n_slices;
  let per_layer_metrics, components =
    if not trace then ([], [])
    else begin
      let gc = Gctime.start () in
      let traced = phase (List.map (run_round ~ledger:true ~gc w ~kernel) seeds) in
      List.iteri
        (fun i (a, b) ->
          if Round.fingerprint a <> Round.fingerprint b then note "round %d: the ledger run did not reproduce the timed run" i)
        (List.combine timed.rounds traced.rounds);
      let l = per_layer w ~timed ~traced ~host:(Host.since (Option.get host0)) in
      (l.per_layer, l.components)
    end
  in
  let attempted = List.fold_left (fun n r -> n + r.Round.attempted) 0 timed.rounds in
  let failed = List.fold_left (fun n r -> n + r.Round.failed) 0 timed.rounds in
  let samples =
    [
      m "rounds" "count" (float_of_int k);
      m "slices" "count" (float_of_int n_slices);
      m "slices_beyond_p99" "count" (float_of_int (Stat.beyond ~n:n_slices 99.));
      m "host.raw_measured_s" "s" (float_of_int timed.raw_ns /. 1e9);
      m "host.ref_median_ms" "ms" (float_of_int timed.r_ns /. 1e6);
    ]
  in
  let comp =
    List.map (fun (name, n, each) -> m ("ledger." ^ name ^ ".ms") "ms" (float_of_int n *. each /. 1e6)) components
  in
  {
    correct = !notes = [];
    attempted = max 1 attempted;
    failed;
    metrics = (if trace then per_layer_metrics else e2e);
    report = samples @ e2e @ per_layer_metrics @ comp;
    notes = List.rev !notes;
  }

(* ---- output ---- *)

let json_number v = Printf.sprintf "%.17g" v

let result_line r =
  let metric x = Printf.sprintf "%S: {\"value\": %s, \"unit\": %S}" x.name (json_number x.value) x.unit_ in
  Printf.sprintf "{\"correct\": %b, \"attempted\": %d, \"failed\": %d, \"metrics\": {%s}}" r.correct r.attempted
    r.failed
    (String.concat ", " (List.map metric r.metrics))
