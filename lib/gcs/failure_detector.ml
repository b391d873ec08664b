type config = { heartbeat_interval : Sim.Sim_time.span; timeout : Sim.Sim_time.span }

let default_config =
  { heartbeat_interval = Sim.Sim_time.span_ms 10.; timeout = Sim.Sim_time.span_ms 50. }

let light_config =
  { heartbeat_interval = Sim.Sim_time.span_ms 50.; timeout = Sim.Sim_time.span_ms 250. }

type Net.Message.payload += Heartbeat

type t = {
  endpoint : Net.Endpoint.t;
  engine : Sim.Engine.t;
  peers : Net.Node_id.t list;  (* excluding self *)
  config : config;
  last_heard : (int, Sim.Sim_time.t) Hashtbl.t;
  mutable suspected : Net.Node_id.Set.t;
  mutable change_hooks : (unit -> unit) list;
  mutable changes : int;
}

let notify_change fd =
  fd.changes <- fd.changes + 1;
  List.iter (fun f -> f ()) (List.rev fd.change_hooks)

let heard fd peer =
  Hashtbl.replace fd.last_heard (Net.Node_id.index peer) (Sim.Engine.now fd.engine);
  if Net.Node_id.Set.mem peer fd.suspected then begin
    fd.suspected <- Net.Node_id.Set.remove peer fd.suspected;
    notify_change fd
  end

let check_timeouts fd =
  let now = Sim.Engine.now fd.engine in
  let newly_suspected =
    List.filter
      (fun peer ->
        (not (Net.Node_id.Set.mem peer fd.suspected))
        &&
        match Hashtbl.find_opt fd.last_heard (Net.Node_id.index peer) with
        | None -> true
        | Some t ->
          Sim.Sim_time.(now > Sim.Sim_time.add t fd.config.timeout))
      fd.peers
  in
  if newly_suspected <> [] then begin
    fd.suspected <-
      List.fold_left (fun acc p -> Net.Node_id.Set.add p acc) fd.suspected newly_suspected;
    notify_change fd
  end

let reset_and_start fd =
  Hashtbl.reset fd.last_heard;
  fd.suspected <- Net.Node_id.Set.empty;
  (* A fresh start trusts everyone for one full timeout. *)
  let now = Sim.Engine.now fd.engine in
  List.iter (fun p -> Hashtbl.replace fd.last_heard (Net.Node_id.index p) now) fd.peers;
  let process = Net.Endpoint.process fd.endpoint in
  Sim.Process.periodic process ~every:fd.config.heartbeat_interval (fun () ->
      Net.Endpoint.broadcast fd.endpoint ~to_:fd.peers Heartbeat;
      check_timeouts fd)

let create endpoint ~peers ?(config = default_config) () =
  let self = Net.Endpoint.id endpoint in
  let peers = List.filter (fun p -> not (Net.Node_id.equal p self)) peers in
  let fd =
    {
      endpoint;
      engine = Net.Network.engine (Net.Endpoint.network endpoint);
      peers;
      config;
      last_heard = Hashtbl.create 16;
      suspected = Net.Node_id.Set.empty;
      change_hooks = [];
      changes = 0;
    }
  in
  (* Observe heartbeats without consuming them: several detectors can
     share one endpoint (ordering layer, broadcast layer, replica layer)
     and every one of them must keep hearing its peers. *)
  Net.Endpoint.add_handler endpoint (fun message ->
      match message.Net.Message.payload with
      | Heartbeat ->
        heard fd message.Net.Message.src;
        false
      | _ -> false);
  Sim.Process.on_restart (Net.Endpoint.process endpoint) (fun () -> reset_and_start fd);
  reset_and_start fd;
  fd

let suspects fd n = Net.Node_id.Set.mem n fd.suspected
let suspected fd = fd.suspected

let trusted fd =
  let self = Net.Endpoint.id fd.endpoint in
  let up = List.filter (fun p -> not (Net.Node_id.Set.mem p fd.suspected)) fd.peers in
  List.sort Net.Node_id.compare (self :: up)

let on_change fd f = fd.change_hooks <- f :: fd.change_hooks
let changes fd = fd.changes
