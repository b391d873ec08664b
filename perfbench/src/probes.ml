(* Unit costs: each layer's public functions called in a loop from
   outside, on inputs shaped like the workload's. Every probe returns raw
   host nanoseconds per call; the ledger multiplies them by the run's
   exact call counts. *)

module St = Sim.Sim_time

(* After one untimed warm-up pass, times [batches] batches of passes of
   [f] — which makes [calls] calls — each batch running until
   [batch_ns] has gone by; the median batch's ns per call, so a burst of
   host noise moves one batch, not the result. *)
let batches = 11
let batch_ns = 15_000_000

let per_call ~calls f =
  f ();
  let batch () =
    let t0 = Clock.now_ns () in
    let passes = ref 0 in
    while !passes = 0 || Clock.now_ns () - t0 < batch_ns do
      f ();
      incr passes
    done;
    float_of_int (Clock.now_ns () - t0) /. float_of_int (!passes * calls)
  in
  Stat.median (Array.init batches (fun _ -> batch ()))

(* A deterministic stream of small pseudo-random ints for probe inputs. *)
let lcg = ref 12345
let next_int bound =
  lcg := (!lcg * 1103515245 + 12345) land 0x3fffffff;
  !lcg mod bound

(* [Event_queue.add] + [pop] with [depth] events already queued: one
   simulated event's queue cost at the workload's depth. *)
let queue_ns ~depth =
  let q = Sim.Event_queue.create () in
  for _ = 1 to depth do
    Sim.Event_queue.add q ~time:(St.of_us (next_int 1_000_000)) ()
  done;
  per_call ~calls:1000 (fun () ->
      for _ = 1 to 1000 do
        let now = if Sim.Event_queue.is_empty q then 0 else Sim.Event_queue.next_time_us q in
        Sim.Event_queue.add q ~time:(St.of_us (now + 1 + next_int 1_000_000)) ();
        Sim.Event_queue.pop_value q
      done)

type Net.Message.payload += Probe

(* One LAN message, sent and delivered to a registered handler, on a
   9-node network: [Network.send] plus the engine running its delivery. *)
let send_ns () =
  let engine = Sim.Engine.create ~seed:3L () in
  let net = Net.Network.create engine Net.Network.lan_config in
  let ids = Array.init 9 (fun i -> Net.Node_id.make ~index:i ~label:(Printf.sprintf "P%d" i)) in
  let received = ref 0 in
  Array.iter
    (fun id ->
      Net.Network.register net ~id ~process:(Sim.Process.create engine ~name:(Net.Node_id.label id))
        (fun _ -> incr received))
    ids;
  let events0 = Sim.Engine.events_executed engine and sent0 = Net.Network.messages_sent net in
  let ns =
    per_call ~calls:64 (fun () ->
        for k = 0 to 63 do
          Net.Network.send net ~src:ids.(0) ~dst:ids.(1 + (k mod 8)) Probe
        done;
        Sim.Engine.run engine)
  in
  let events_per_msg = Stat.ratio (Sim.Engine.events_executed engine - events0) (Net.Network.messages_sent net - sent0) in
  (ns, events_per_msg)

module Ab =
  Gcs.Atomic_broadcast.Make
    (struct
      type t = int

      let equal = Int.equal
      let pp = Format.pp_print_int
    end)
    (struct
      type t = unit
    end)

type delivery = { delivery_ns : float; events_per_value : float; msgs_per_value : float }

(* A settled 9-member atomic-broadcast cluster on [tuning]: bursts of 32
   values broadcast at one member, run until every member delivered all
   of them; cost per value, and the events and messages each took. *)
let delivery_ns tuning =
  let engine = Sim.Engine.create ~seed:5L () in
  let net = Net.Network.create engine Net.Network.lan_config in
  let delivered = ref 0 in
  let eps =
    List.init 9 (fun i ->
        let id = Net.Node_id.make ~index:i ~label:(Printf.sprintf "G%d" i) in
        Net.Endpoint.attach net ~id ~process:(Sim.Process.create engine ~name:(Net.Node_id.label id)) ())
  in
  let group = List.map Net.Endpoint.id eps in
  let members =
    List.map
      (fun ep ->
        Ab.create ep ~group ~tuning
          ~deliver:(fun _ -> incr delivered)
          ~get_snapshot:ignore ~install_snapshot:ignore ~cold_start:ignore ())
      eps
  in
  Sim.Engine.run ~until:(St.of_us 200_000) engine;
  let first = List.hd members in
  let burst = 32 and value = ref 0 in
  let values = ref 0 in
  let events0 = Sim.Engine.events_executed engine and sent0 = Net.Network.messages_sent net in
  let ns =
    per_call ~calls:burst (fun () ->
        let target = !delivered + (9 * burst) in
        for _ = 1 to burst do
          incr value;
          Ab.broadcast first !value
        done;
        values := !values + burst;
        while !delivered < target do
          if not (Sim.Engine.step engine) then failwith "delivery probe: queue empty"
        done)
  in
  {
    delivery_ns = ns;
    events_per_value = Stat.ratio (Sim.Engine.events_executed engine - events0) !values;
    msgs_per_value = Stat.ratio (Net.Network.messages_sent net - sent0) !values;
  }

(* Transactions the workload's generator would draw. *)
let sample_txs params =
  let gen = Workload.Generator.create params (Sim.Rng.create 17L) in
  Array.init 512 (fun i -> Workload.Generator.next gen ~client:(i mod 36))

let certify_ns params =
  let wss = Array.map Db.Transaction.to_writeset (sample_txs params) in
  let c = Db.Certifier.create () in
  per_call ~calls:(Array.length wss) (fun () ->
      Array.iter
        (fun ws -> ignore (Db.Certifier.certify c ~start:(Db.Certifier.current_version c) ~ws : Db.Certifier.decision))
        wss)

let wal_codec_ns params =
  let writes = Array.map Db.Transaction.writes (sample_txs params) in
  per_call ~calls:(Array.length writes) (fun () ->
      Array.iteri
        (fun i writes ->
          let frame = Db.Wal_codec.encode ~seq:(i + 1) ~tx:i ~decision:Db.Certifier.Commit ~writes in
          ignore (Db.Wal_codec.decode frame : (Db.Wal_codec.record, Db.Wal_codec.error) result))
        writes)

(* One [Db_engine.wal_records] call on an engine whose WAL holds
   [records] durable commit records of the workload's shape. *)
let wal_scan_ns params ~records =
  if records <= 0 then 0.
  else begin
    let engine = Sim.Engine.create ~seed:9L () in
    let db =
      Db.Db_engine.create engine
        ~process:(Sim.Process.create engine ~name:"wal")
        ~cpus:(Sim.Resource.create engine ~name:"cpu" ~servers:2)
        ~disks:(Sim.Resource.create engine ~name:"disk" ~servers:2)
        ~rng:(Sim.Rng.create 9L) (Workload.Params.db_config params)
    in
    let txs = sample_txs params in
    for i = 0 to records - 1 do
      let tx = txs.(i mod Array.length txs) in
      Db.Db_engine.log_commit_quiet db ~tx:i ~decision:Db.Certifier.Commit ~writes:(Db.Transaction.writes tx)
    done;
    Sim.Engine.run engine;
    per_call ~calls:1 (fun () -> ignore (Db.Db_engine.wal_records db : Db.Db_engine.wal_record list))
  end

(* Strict two-phase locking of one workload transaction: an [acquire] per
   operation, then [release_all]. *)
let lock_ns params =
  let txs = sample_txs params in
  let lt = Db.Lock_table.create () in
  per_call ~calls:(Array.length txs) (fun () ->
      Array.iteri
        (fun i tx ->
          List.iter
            (fun op ->
              let mode = if Db.Op.is_write op then Db.Lock_table.Exclusive else Db.Lock_table.Shared in
              ignore
                (Db.Lock_table.acquire lt ~tx:i ~item:(Db.Op.item op) ~mode ~granted:ignore
                  : [ `Ok | `Deadlock ]))
            tx.Db.Transaction.ops;
          Db.Lock_table.release_all lt ~tx:i)
        txs)

let hist_add_ns () =
  let h = Obs.Histogram.create () in
  per_call ~calls:1000 (fun () ->
      for _ = 1 to 1000 do
        Obs.Histogram.add h (next_int 1_000_000)
      done)
