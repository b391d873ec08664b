open Groupsafe
module St = Sim.Sim_time

let system_seed = 7L

(* ---- deployments and the fault applier ---- *)

type deployment = {
  groups : System.t array;
  holds : St.span array;
  link : (St.span -> int list list option -> unit) option;
}

let delay_gates schedule =
  let holds = Array.make schedule.Schedule.servers St.span_zero in
  let gated i =
    List.exists
      (fun e -> match e.Schedule.kind with Schedule.Delay (j, _) -> i = j | _ -> false)
      schedule.Schedule.events
  in
  (holds, fun i -> if gated i then Some (fun () -> holds.(i)) else None)

(* The partition as group [g] sees it: the explicit partition groups
   restricted to its own members, in local indices. Empty when no member
   of [g] is named, and then [g] is connected within itself. *)
let local_groups ~sps g groups =
  List.filter_map
    (fun members ->
      match List.filter (fun gi -> gi / sps = g) members with
      | [] -> None
      | mine -> Some (List.map (fun gi -> gi mod sps) mine))
    groups

let apply d schedule =
  let sps = System.n_servers d.groups.(0) in
  let at g delay f = ignore (Sim.Engine.schedule (System.engine d.groups.(g)) ~delay f) in
  let on_server gi e f =
    at (gi / sps) e.Schedule.at (fun () -> f d.groups.(gi / sps) (gi mod sps))
  in
  let each_group e f = Array.iteri (fun g sys -> at g e.Schedule.at (fun () -> f g sys)) d.groups in
  (* Loss windows may overlap (two Drop_window events, or a shrink that
     moved one); an epoch guard keeps the close of an earlier window from
     cutting a later one short. Slow-disk and disk-full windows get the
     same guard, per server. *)
  let drop_epoch = Array.make (Array.length d.groups) 0 in
  let slow_epoch = Array.make schedule.Schedule.servers 0 in
  let full_epoch = Array.make schedule.Schedule.servers 0 in
  let window g e until epochs k set =
    epochs.(k) <- epochs.(k) + 1;
    let epoch = epochs.(k) in
    set true;
    at g
      (St.span_us (Int.max 0 (St.span_to_us until - St.span_to_us e.Schedule.at)))
      (fun () -> if epochs.(k) = epoch then set false)
  in
  let link at groups = Option.iter (fun f -> f at groups) d.link in
  let inject fault sys l = System.inject_storage_fault sys l fault in
  List.iter
    (fun e ->
      match e.Schedule.kind with
      | Schedule.Crash gi -> on_server gi e System.crash
      | Schedule.Recover gi -> on_server gi e System.recover
      | Schedule.Delay (gi, hold) -> at (gi / sps) e.Schedule.at (fun () -> d.holds.(gi) <- hold)
      | Schedule.Partition groups ->
        each_group e (fun g sys ->
            match local_groups ~sps g groups with
            | [] -> System.heal sys
            | locals -> System.partition sys locals);
        link e.Schedule.at (Some groups)
      | Schedule.Heal ->
        each_group e (fun _ sys -> System.heal sys);
        link e.Schedule.at None
      | Schedule.Drop_window { prob; until } ->
        each_group e (fun g sys ->
            window g e until drop_epoch g (fun on ->
                System.set_drop sys (if on then Some prob else None)))
      | Schedule.Duplicate_next gi -> on_server gi e System.duplicate_next
      | Schedule.Torn_write gi -> on_server gi e (inject Db.Db_engine.Torn_write)
      | Schedule.Fsync_lie gi -> on_server gi e (inject Db.Db_engine.Fsync_lie)
      | Schedule.Corrupt_record gi -> on_server gi e (inject Db.Db_engine.Corrupt_record)
      | Schedule.Slow_disk { server = gi; factor; until } ->
        on_server gi e (fun sys l ->
            window (gi / sps) e until slow_epoch gi (fun on ->
                System.set_disk_slow sys l (if on then factor else 1.0)))
      | Schedule.Disk_full { server = gi; until } ->
        on_server gi e (fun sys l ->
            window (gi / sps) e until full_epoch gi (System.set_disk_full sys l)))
    schedule.Schedule.events

let repair d schedule =
  let opened p = List.exists (fun e -> p e.Schedule.kind) schedule.Schedule.events in
  let network =
    opened (function
      | Schedule.Partition _ | Schedule.Heal | Schedule.Drop_window _ | Schedule.Duplicate_next _ ->
        true
      | _ -> false)
  in
  let disks = opened (function Schedule.Slow_disk _ | Schedule.Disk_full _ -> true | _ -> false) in
  Array.iter
    (fun sys ->
      if network then begin
        System.heal sys;
        System.set_drop sys None
      end;
      if disks then
        for l = 0 to System.n_servers sys - 1 do
          System.set_disk_slow sys l 1.0;
          System.set_disk_full sys l false
        done;
      for l = 0 to System.n_servers sys - 1 do
        System.recover sys l
      done)
    d.groups

(* ---- the oracle stack ---- *)

type predicate = Any_loss | Violation

type oracles = {
  predicate : predicate;
  storage : bool;
  nemesis : bool;
  liveness : bool;
  max_decision_us : int option;
}

type verdict = {
  report : Safety_checker.report;
  durability : Durability.verdict option;
  converge : Convergence.verdict option;
  liveness : Liveness.verdict option;
  failed : bool;
}

let certify o ~delegate_crashed groups =
  let each enabled f = Array.mapi (fun g sys -> if enabled then Some (f g sys) else None) groups in
  let reports = Array.map Safety_checker.analyse groups in
  (* In storage mode the durability oracle subsumes the loss predicate: it
     applies the same Table-3 permissions and additionally excuses (while
     still reporting) losses where every replica's WAL was betrayed — no
     level survives total betrayal — and demands that recovery repaired
     every injected torn tail and detected every corruption. *)
  let durability =
    each o.storage (fun g sys ->
        Durability.certify ~delegate_crashed:(delegate_crashed g) sys reports.(g))
  in
  (* Healing convergence — every acked update on every serving server and
     a fresh probe committing — after the loss analysis, so the probe
     cannot perturb it. Each group's probe runs its engine solo. *)
  let converge =
    each o.nemesis (fun g sys -> Convergence.certify ~probe_tx_id:(1_000_000 + g) sys)
  in
  (* Liveness is observation-only, so it stacks last: a convergence probe
     that never came back shows up as a wedged transaction here too. *)
  let liveness =
    each o.liveness (fun _ sys -> Liveness.certify ?max_decision_us:o.max_decision_us sys)
  in
  Array.mapi
    (fun g report ->
      let lossy =
        match (durability.(g), o.predicate) with
        | Some v, _ -> not v.Durability.clean
        | None, Any_loss -> report.Safety_checker.lost <> []
        | None, Violation ->
          not (Safety_checker.losses_allowed report ~delegate_crashed:(delegate_crashed g))
      in
      {
        report;
        durability = durability.(g);
        converge = converge.(g);
        liveness = liveness.(g);
        failed =
          lossy
          || Option.fold ~none:false ~some:(fun v -> not v.Convergence.converged) converge.(g)
          || Option.fold ~none:false ~some:(fun v -> not v.Liveness.live) liveness.(g);
      })
    reports

(* ---- search ---- *)

let first_failing ~fails candidates =
  let total = Array.length candidates in
  let batch = Int.max 1 (Parallel.Domain_pool.default_jobs () * 2) in
  let rec from base =
    if base >= total then None
    else begin
      let n = Int.min batch (total - base) in
      let failures =
        Parallel.Domain_pool.map
          ((fun k -> fails candidates.(base + k))
          [@lint.allow "T-domain-escape"
            "read-only sharing: [candidates] is fully built before the fan-out and each \
             worker reads a distinct index; [fails] replays a candidate on a deployment of its \
             own"])
          (List.init n Fun.id)
      in
      match List.find_index Fun.id failures with
      | Some k -> Some (base + k)
      | None -> from (base + n)
    end
  in
  from 0

let shrink ~admissible ~fails schedule =
  let runs = ref 0 in
  let rec fix schedule rounds =
    match
      List.find_opt
        (fun candidate ->
          admissible candidate
          && begin
               incr runs;
               fails candidate
             end)
        (Schedule.shrink schedule)
    with
    | Some smaller -> fix smaller (rounds + 1)
    | None -> (schedule, rounds)
  in
  let shrunk, rounds = fix schedule 0 in
  (shrunk, rounds, !runs)

(* ---- storm family builders ---- *)

let loss_window rng ~window_us =
  if Sim.Rng.int rng 2 = 0 then []
  else begin
    let at_us = Sim.Rng.int rng (window_us + 1) in
    let prob = 0.2 +. Sim.Rng.float rng 0.7 in
    let len_us = 1_000 + Sim.Rng.int rng window_us in
    [
      {
        Schedule.at = St.span_us at_us;
        kind = Schedule.Drop_window { prob; until = St.span_us (at_us + len_us) };
      };
    ]
  end

let minority rng ~servers =
  let size = 1 + Sim.Rng.int rng (Int.max 1 ((servers - 1) / 2)) in
  List.sort_uniq Int.compare (List.init size (fun _ -> Sim.Rng.int rng servers))

let cut ~at ~hold members =
  [
    { Schedule.at; kind = Schedule.Partition [ members ] };
    { Schedule.at = St.span_add at hold; kind = Schedule.Heal };
  ]
