(* The three load workloads, driven the way [Experiment.run_load_point]
   drives a load point: an open Poisson arrival process
   ([Workload.Arrival.open_poisson]) whose submit draws a delegate and a
   client and calls [Workload.Generator.next] inside the simulation. One
   round builds a deployment, runs its warm-up, then the measured phase in
   fixed slices of simulated time. *)

open Groupsafe
module St = Sim.Sim_time

type spec = {
  technique : System.technique;
  params : Workload.Params.t;
  tuning : Gcs.Bcast_tuning.t;
  tps : float;  (** offered load, transactions per simulated second. *)
  measure : St.span;  (** simulated span of arrivals after the warm-up. *)
  slice : St.span;  (** divides [measure] and [drain]. *)
}

let warmup = St.span_s 5.

(* Simulated time after the last arrival, so every transaction is
   answered and every replica has applied everything before the oracles
   look. *)
let drain = St.span_s 3.

(* The harness's failure detector for fault-free runs: the default 10 ms
   heartbeat is overhead when nothing crashes. *)
let light_fd = { Gcs.Failure_detector.heartbeat_interval = St.span_ms 50.; timeout = St.span_ms 250. }

(* Slices of arrivals, and slices in all (the drain's too). *)
let arrival_slices spec = St.span_to_us spec.measure / St.span_to_us spec.slice
let slices spec = St.span_to_us (St.span_add spec.measure drain) / St.span_to_us spec.slice

(* What the ledger run adds to a round: host time inside each
   [Workload.Generator.next] and [System.submit] call, and the
   event-queue depth at every slice boundary. Neither reads or changes
   model state beyond [Sim.Engine.pending]. *)
type probes = {
  mutable gen_ns : int;
  mutable submit_ns : int;
  mutable submits : int;
  mutable depths : int list;
}

(* Builds the deployment with its arrival process and runs the warm-up;
   returns the system, the arrival process and the end of the warm-up. *)
let setup ?probes spec ~seed =
  let sys =
    System.create ~seed ~params:spec.params ~fd_config:light_fd ~tuning:spec.tuning ~trace_enabled:false
      spec.technique
  in
  System.attach_obs_samplers sys;
  let engine = System.engine sys in
  let rng = Sim.Rng.split (Sim.Engine.rng engine) in
  let generator = Workload.Generator.create spec.params (Sim.Rng.split rng) in
  let n = spec.params.Workload.Params.servers in
  let per = spec.params.Workload.Params.clients_per_server in
  let submit () =
    let delegate = Sim.Rng.int rng n in
    let client = (delegate * per) + Sim.Rng.int rng per in
    match probes with
    | None -> System.submit sys ~delegate (Workload.Generator.next generator ~client)
    | Some p ->
      let tx, gen_ns = Clock.timed (fun () -> Workload.Generator.next generator ~client) in
      let (), submit_ns = Clock.timed (fun () -> System.submit sys ~delegate tx) in
      p.gen_ns <- p.gen_ns + gen_ns;
      p.submit_ns <- p.submit_ns + submit_ns;
      p.submits <- p.submits + 1
  in
  let arrival = Workload.Arrival.open_poisson engine ~rng:(Sim.Rng.split rng) ~rate_tps:spec.tps submit in
  let warm_until = St.add (Sim.Engine.now engine) warmup in
  Workload.Metrics.set_warmup (System.metrics sys) warm_until;
  System.run_for sys warmup;
  (sys, arrival, warm_until)

(* The measured phase: slice [k] advances the simulation by one slice,
   its host time goes to [slice_ns.(k)] and a reference-kernel sample
   taken after it to [ref_ns.(k)]; arrivals stop at the end of the last
   arrival slice, then the drain runs. *)
let measure ?probes ?gc spec sys arrival ~kernel ~slice_ns ~ref_ns =
  let last_arrivals = arrival_slices spec - 1 in
  for k = 0 to Array.length slice_ns - 1 do
    let t0 = Clock.now_ns () in
    System.run_for sys spec.slice;
    slice_ns.(k) <- Clock.now_ns () - t0;
    ref_ns.(k) <- Refk.sample kernel;
    if k = last_arrivals then Workload.Arrival.stop arrival;
    Option.iter Gctime.poll gc;
    Option.iter (fun p -> p.depths <- Sim.Engine.pending (System.engine sys) :: p.depths) probes
  done

(* One sample per WAL record forced or flushed: the DSM commit record,
   and 2PC's prepare force and decision flush. *)
let wal_histograms = [ "phase.wal_us"; "2pc.prepare_force_us"; "2pc.decision_flush_us" ]

(* The histograms whose quantiles the per-layer metrics report. *)
let quantiled = [ "res.disk.util_permille"; "phase.wal_us" ]

let counted sys =
  ("events", Sim.Engine.events_executed (System.engine sys))
  :: ("msgs", Net.Network.messages_sent (System.network sys))
  :: Round.flatten (System.obs_registry sys)

(* The fault-free oracles: every replica still serves, and the safety
   checker finds no acknowledged transaction lost and no item on which
   the serving replicas' values differ. *)
let check sys =
  let n = System.n_servers sys in
  let report = Safety_checker.analyse sys in
  List.filter_map
    (fun (ok, what) -> if ok then None else Some what)
    [
      (List.for_all (System.serving sys) (List.init n Fun.id), "a replica stopped serving");
      (report.Safety_checker.lost = [], "an acknowledged transaction was lost");
      (report.Safety_checker.divergent_items = 0, "serving replicas hold different values");
    ]

let round ?(ledger = false) ?gc ~kernel spec ~seed =
  let probes = if ledger then Some { gen_ns = 0; submit_ns = 0; submits = 0; depths = [] } else None in
  let (sys, arrival, warm_until), setup_ns = Clock.timed (fun () -> setup ?probes spec ~seed) in
  let slice_ns = Array.make (slices spec) 0 and ref_ns = Array.make (slices spec) 0 in
  let before = counted sys in
  Option.iter (fun g -> ignore (Gctime.take g : int)) gc;
  let promoted0 = (Gc.quick_stat ()).Gc.promoted_words in
  let minor0 = Gc.minor_words () in
  measure ?probes ?gc spec sys arrival ~kernel ~slice_ns ~ref_ns;
  let minor_words = Gc.minor_words () -. minor0 in
  let promoted_words = (Gc.quick_stat ()).Gc.promoted_words -. promoted0 in
  let gc_ns = match gc with Some g -> Gctime.take g | None -> 0 in
  let m = System.metrics sys in
  (* A measured arrival unanswered after the drain is a failed op; an
     unanswered warm-up arrival breaks the round. *)
  let attempted = ref 0 and answered = ref 0 and unanswered = ref 0 and warm_unanswered = ref 0 in
  List.iter
    (fun s ->
      let measured = St.(s.System.sub_at > warm_until) in
      if measured then incr attempted;
      match (System.acked_id sys s.System.sub_tx, measured) with
      | true, true -> incr answered
      | false, true -> incr unanswered
      | false, false -> incr warm_unanswered
      | true, false -> ())
    (System.submissions sys);
  let registry = System.obs_registry sys in
  {
    Round.setup_ns;
    slice_ns;
    ref_ns = Refk.local ref_ns;
    attempted = !attempted;
    ops = !answered;
    failed = !unanswered;
    broken = (if !warm_unanswered > 0 then [ "a warm-up transaction was never answered" ] else []) @ check sys;
    minor_words;
    promoted_words;
    counts =
      Round.merge_counts
        [
          Round.delta ~before (counted sys);
          [
            ("metrics.commits", Workload.Metrics.commits m);
            ("metrics.aborts", Workload.Metrics.aborts m);
            (* Every WAL record the round appended, warm-up included:
               what the servers' logs hold at the end. *)
            ( "wal.records_total",
              List.fold_left
                (fun n name ->
                  n + Option.fold ~none:0 ~some:Obs.Histogram.count (Obs.Registry.find_histogram registry name))
                0 wal_histograms );
          ];
        ];
    hists =
      List.filter_map
        (fun name ->
          Option.map (fun h -> (name, Obs.Histogram.merge h (Obs.Histogram.create ()))) (Obs.Registry.find_histogram registry name))
        quantiled;
    resp_ms = Sim.Stats.samples (Workload.Metrics.responses m);
    timed_calls =
      (match probes with
      | Some p -> [ ("workload.gen", p.submits, p.gen_ns); ("core.submit", p.submits, p.submit_ns) ]
      | None -> []);
    per_call_ns = [];
    depths = (match probes with Some p -> Array.of_list p.depths | None -> [||]);
    gc_ns;
  }
