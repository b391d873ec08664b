open Groupsafe
module St = Sim.Sim_time
module Schedule = Check.Schedule

let ms = St.span_ms
let sec = St.span_s

(* The unsharded explorer's small system, with a key space wide enough
   that every shard's range holds the whole fixed load. *)
let default_params = { Check.Explorer.default_params with Workload.Params.items = 240 }

type config = {
  technique : System.technique;
  shards : int;
  params : Workload.Params.t;
  txs : int;
  spacing : St.span;
  cross_every : int;
  horizon : St.span;
  quiescence : St.span;
}

let default_config ?(shards = 2) ?(cross_every = 2) technique =
  {
    technique;
    shards;
    params = default_params;
    txs = 4;
    spacing = ms 5.;
    cross_every;
    horizon = ms 60.;
    quiescence = sec 4.;
  }

type shard_verdict = {
  sv_shard : int;
  sv_report : Safety_checker.report;
  sv_losses_allowed : bool;
  sv_durability : Check.Durability.verdict;
  sv_converge : Convergence.verdict;
  sv_ok : bool;
}

type cross_verdict = {
  cv_cross_acked : int;
  cv_cross_committed : int;
  cv_lost_parts : (Db.Transaction.id * int list) list;
  cv_forbidden : (Db.Transaction.id * int list) list;
  cv_broken_atomicity : (Db.Transaction.id * int list) list;
  cv_ok : bool;
}

type outcome = {
  schedule : Schedule.t;
  shard_verdicts : shard_verdict list;
  cross : cross_verdict;
  failed : bool;
  registry : Obs.Registry.t;
}

(* Shard-to-shard reachability under a global partition: shard [s] is
   represented by its server [s * sps] (replica groups are placed whole
   into partition groups by the sharded fault vocabulary; a cut that
   splits a group only cuts inside that shard's own network). Two shards
   talk iff their representatives share a partition group — servers in no
   explicit group form the implicit last group together. *)
let blocked_pairs ~shards ~sps groups =
  let side s = List.find_index (List.mem (s * sps)) groups in
  let all = List.init shards Fun.id in
  List.concat_map
    (fun a -> List.filter_map (fun b -> if side a <> side b then Some (a, b) else None) all)
    all

(* The sharded setting of the oracle stack: durability replaces the loss
   predicate, and convergence is certified after every run. *)
let oracles =
  {
    Check.Pipeline.predicate = Check.Pipeline.Violation;
    storage = true;
    nemesis = true;
    liveness = false;
    max_decision_us = None;
  }

let run config schedule =
  let sps = config.params.Workload.Params.servers in
  let shards = config.shards in
  if schedule.Schedule.servers <> shards * sps then
    invalid_arg "Shard_check.run: schedule servers must equal shards * servers-per-shard";
  if
    List.exists
      (fun e -> match e.Schedule.kind with Schedule.Delay _ -> true | _ -> false)
      schedule.Schedule.events
  then invalid_arg "Shard_check.run: delivery-delay events are not in the sharded vocabulary";
  let scfg =
    Sharded_system.config ~seed:Check.Pipeline.system_seed
      ~fd_config:Gcs.Failure_detector.light_config ~trace_enabled:false ~shards
      ~params:config.params config.technique
  in
  let t = Sharded_system.create scfg in
  let map = Sharded_system.map t in
  let sys s = Sharded_system.sys t s in
  (* The fixed load: write-only transactions, each homed on shard
     [i mod shards] with delegate [i mod sps] there, writing two items of
     its home range; every [cross_every]-th transaction also writes one
     item of the next shard's range and so goes through cross-shard 2PC. *)
  for i = 0 to schedule.Schedule.txs - 1 do
    let home = i mod shards in
    let local = i mod sps in
    let j = i / shards in
    let lo, hi = Shard_map.range map home in
    let width = hi - lo in
    let ops =
      [
        Db.Op.Write (lo + (2 * j mod width), i + 1);
        Db.Op.Write (lo + (((2 * j) + 1) mod width), i + 1);
      ]
    in
    let ops =
      if shards > 1 && config.cross_every > 0 && i mod config.cross_every = 0 then begin
        let partner = (home + 1) mod shards in
        let plo, phi = Shard_map.range map partner in
        ops @ [ Db.Op.Write (plo + (2 * j mod (phi - plo)), i + 1) ]
      end
      else ops
    in
    let tx = Db.Transaction.make ~id:i ~client:0 ops in
    ignore
      (Sim.Engine.schedule (Sharded_system.engine_of t home)
         ~delay:(St.span_us (St.span_to_us schedule.Schedule.spacing * i))
         (fun () ->
           if System.alive (sys home) local then
             Sharded_system.submit t ~delegate:((home * sps) + local) tx))
  done;
  (* Partitions and heals become cross-shard link commands, applied at the
     window barriers (link faults act at window granularity). *)
  let link_cmds = ref [] in
  let link at groups =
    link_cmds := (at, Option.map (blocked_pairs ~shards ~sps) groups) :: !link_cmds
  in
  let deployment =
    { Check.Pipeline.groups = Array.init shards sys; holds = [||]; link = Some link }
  in
  Check.Pipeline.apply deployment schedule;
  (* In time order: the applier walks the schedule's sorted events. *)
  let pending = ref (List.rev !link_cmds) in
  let rec on_exchange ~window ~until =
    match !pending with
    | (at, cmd) :: rest when St.(St.add St.zero at < until) ->
      pending := rest;
      Sharded_system.clear_blocked t;
      Option.iter (List.iter (fun (src, dst) -> Sharded_system.block_link t ~src ~dst)) cmd;
      on_exchange ~window ~until
    | _ -> ()
  in
  (* One domain: a storm search already fans whole runs out over the
     pool, and domains never nest. *)
  Sharded_system.run_for ~jobs:1 ~on_exchange t config.horizon;
  (* "Lost" must mean permanently lost on a healed, recovered deployment —
     including the cross-shard links. *)
  Sharded_system.clear_blocked t;
  Check.Pipeline.repair deployment schedule;
  Sharded_system.run_for ~jobs:1 t config.quiescence;
  (* ---- oracles ---- *)
  (* Sub-transaction delegates reuse their global transaction's local
     index, so one mapping answers for workload ids and sub ids alike. *)
  let delegate_crashed s id =
    let g = if id >= 0 then id else (-id - 1) / 2 in
    (System.history (sys s) (g mod sps)).Gcs.Process_class.crashes <> []
  in
  (* Convergence probes run each shard's engine solo, so the clocks leave
     lockstep here: no windowed run may follow. *)
  let verdicts = Check.Pipeline.certify oracles ~delegate_crashed (Array.init shards sys) in
  let reports = Array.map (fun v -> v.Check.Pipeline.report) verdicts in
  let shard_verdicts =
    List.mapi
      (fun s { Check.Pipeline.report; durability; converge; failed; _ } ->
        {
          sv_shard = s;
          sv_report = report;
          sv_losses_allowed =
            Safety_checker.losses_allowed report ~delegate_crashed:(delegate_crashed s);
          sv_durability = Option.get durability;
          sv_converge = Option.get converge;
          sv_ok = not failed;
        })
      (Array.to_list verdicts)
  in
  (* Cross-shard audit over the global acknowledgement book: a committed
     cross-shard transaction is lost iff any of its write sub-transactions
     is lost on its shard; such a loss is excused only if that shard's
     level permits it under that shard's failures (Table 3 per shard). And
     atomicity: every write part must be committed on every serving server
     of its shard — a half-applied global commit is a bug no matter what
     survived. *)
  let gacks = Sharded_system.acked t in
  let cross_acked = List.filter (fun g -> g.Sharded_system.g_cross) gacks in
  let cross_committed =
    List.filter
      (fun g ->
        Db.Testable_tx.outcome_equal g.Sharded_system.g_outcome Db.Testable_tx.Committed)
      cross_acked
  in
  let lost_on p wid =
    List.exists (fun l -> l.Safety_checker.tx = wid) reports.(p).Safety_checker.lost
  in
  (* The committed cross-shard transactions with a write part [bad p wid],
     each with the shards of those parts. *)
  let with_parts bad =
    List.filter_map
      (fun g ->
        match
          List.filter_map
            (fun (p, wid) -> if bad p wid then Some p else None)
            g.Sharded_system.g_write_parts
        with
        | [] -> None
        | ps -> Some (g.Sharded_system.g_tx, ps))
      cross_committed
  in
  let lost_parts = with_parts lost_on in
  let forbidden =
    with_parts (fun p wid ->
        lost_on p wid
        && not
             (Safety.lost_if reports.(p).Safety_checker.level
                ~group_failed:reports.(p).Safety_checker.group_failed
                ~delegate_crashed:(delegate_crashed p wid)))
  in
  (* A shard that lost the sub-transaction outright is already counted
     (and classified) as a loss, not as broken atomicity. *)
  let broken_atomicity =
    with_parts (fun p wid ->
        (not (lost_on p wid))
        && List.exists
             (fun l -> System.serving (sys p) l && not (System.committed_on (sys p) ~server:l wid))
             (List.init sps Fun.id))
  in
  let cross =
    {
      cv_cross_acked = List.length cross_acked;
      cv_cross_committed = List.length cross_committed;
      cv_lost_parts = lost_parts;
      cv_forbidden = forbidden;
      cv_broken_atomicity = broken_atomicity;
      cv_ok = forbidden = [] && broken_atomicity = [];
    }
  in
  let failed =
    List.exists (fun v -> not v.sv_ok) shard_verdicts || not cross.cv_ok
  in
  {
    schedule;
    shard_verdicts;
    cross;
    failed;
    registry = Sharded_system.merged_registry t;
  }

(* ---- storm generation ---- *)

let isolate_shard_events ~sps ~shard ~at ~hold =
  Check.Pipeline.cut ~at ~hold (List.init sps (fun l -> (shard * sps) + l))

(* One random sharded storm. Fault families draw from split streams in a
   fixed order (the unsharded explorer's determinism argument): random
   crashes/recoveries over the global servers, then one of — nothing, a
   whole-shard isolation (the partition cuts every cross-shard link of one
   group while its own network stays intact), or a cut straight across the
   groups (a random minority of global servers on one side) — and an
   optional per-shard loss window. *)
let random_schedule config rng ~max_events =
  let sps = config.params.Workload.Params.servers in
  let n = config.shards * sps in
  let window_us = St.span_to_us config.horizon * 3 / 4 in
  let crash_rng = Sim.Rng.split rng in
  let part_rng = Sim.Rng.split rng in
  let loss_rng = Sim.Rng.split rng in
  let n_crash = 1 + Sim.Rng.int crash_rng (Int.max 1 max_events) in
  let crashes =
    List.init n_crash (fun _ ->
        let at = St.span_us (Sim.Rng.int crash_rng (window_us + 1)) in
        let server = Sim.Rng.int crash_rng n in
        let kind =
          if Sim.Rng.int crash_rng 2 = 0 then Schedule.Crash server else Schedule.Recover server
        in
        { Schedule.at; kind })
  in
  let partition =
    match Sim.Rng.int part_rng 3 with
    | 0 -> []
    | family ->
      let members =
        if family = 1 && config.shards > 1 then
          let shard = Sim.Rng.int part_rng config.shards in
          List.init sps (fun l -> (shard * sps) + l)
        else Check.Pipeline.minority part_rng ~servers:n
      in
      let at = St.span_us (Sim.Rng.int part_rng (window_us + 1)) in
      let hold = St.span_us (1_000 + Sim.Rng.int part_rng window_us) in
      Check.Pipeline.cut ~at ~hold members
  in
  let loss = Check.Pipeline.loss_window loss_rng ~window_us in
  Schedule.make ~servers:n ~txs:config.txs ~spacing:config.spacing (crashes @ partition @ loss)

(* ---- storm search with shrinking ---- *)

type counterexample = {
  original : Schedule.t;
  shrunk : Schedule.t;
  shrink_rounds : int;
  shrink_runs : int;
  outcome : outcome;
}

type result = {
  config : config;
  seed : int64;
  budget : int;
  runs : int;
  counterexample : counterexample option;
}

let storm ~seed ~budget config =
  let max_events = 4 in
  let rng = Sim.Rng.create seed in
  let storms = Array.init (Int.max 0 budget) (fun _ -> random_schedule config rng ~max_events) in
  let fails schedule = (run config schedule).failed in
  let runs, counterexample =
    match Check.Pipeline.first_failing ~fails storms with
    | None -> (Array.length storms, None)
    | Some k ->
      let original = storms.(k) in
      (* The shard layout is part of the configuration, not the schedule. *)
      let admissible c = c.Schedule.servers = original.Schedule.servers in
      let shrunk, shrink_rounds, shrink_runs = Check.Pipeline.shrink ~admissible ~fails original in
      let outcome = run config shrunk in
      (k + 1, Some { original; shrunk; shrink_rounds; shrink_runs; outcome })
  in
  { config; seed; budget; runs; counterexample }

(* ---- printing ---- *)

let pp_cross ppf c =
  Format.fprintf ppf
    "@[<v>cross-shard: %d acked (%d committed); lost parts %d, forbidden %d, broken atomicity %d@]"
    c.cv_cross_acked c.cv_cross_committed (List.length c.cv_lost_parts)
    (List.length c.cv_forbidden)
    (List.length c.cv_broken_atomicity)

let pp_outcome ppf o =
  Format.fprintf ppf "@[<v>%a@,%a" Schedule.pp o.schedule pp_cross o.cross;
  List.iter
    (fun v ->
      Format.fprintf ppf
        "@,shard %d: acked %d, lost %d, group_failed %b, durability %s, converged %b%s"
        v.sv_shard v.sv_report.Safety_checker.acked_commits
        (List.length v.sv_report.Safety_checker.lost)
        v.sv_report.Safety_checker.group_failed
        (if v.sv_durability.Check.Durability.clean then "clean" else "DIRTY")
        v.sv_converge.Convergence.converged
        (if v.sv_ok then "" else "  <- FAILED"))
    o.shard_verdicts;
  Format.fprintf ppf "@]"

let pp_result ppf r =
  Format.fprintf ppf "@[<v>%d shards x %d servers, %d storms run (budget %d, seed %Ld)@,"
    r.config.shards r.config.params.Workload.Params.servers r.runs r.budget r.seed;
  (match r.counterexample with
  | None -> Format.fprintf ppf "no counterexample: every storm's verdicts were clean@]"
  | Some c ->
    Format.fprintf ppf
      "COUNTEREXAMPLE after %d runs (shrunk in %d rounds / %d re-runs):@,%a@]" r.runs
      c.shrink_rounds c.shrink_runs pp_outcome c.outcome)

let render_result r = Format.asprintf "%a" pp_result r
