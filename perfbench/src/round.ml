(* One round of a workload: a deployment (or schedule list) built from
   one round seed, then measured. Everything but the host times is a
   function of the round seed and repeats bit for bit. *)

type t = {
  setup_ns : int;
  slice_ns : int array;  (** raw host time of each measured slice. *)
  ref_ns : int array;
      (** per slice, the [r] its host time is scaled by ({!Refk.local});
          set-up time is scaled by the first slice's. *)
  attempted : int;  (** ops offered: arrivals after the warm-up, or storms. *)
  ops : int;  (** ops completed: transactions answered, or storms certified. *)
  failed : int;  (** unanswered transactions, or storms whose verdict failed. *)
  broken : string list;  (** correctness checks that did not hold. *)
  minor_words : float;  (** allocated during the measured phase. *)
  promoted_words : float;
  counts : (string * int) list;
      (** exact measured-phase counts: engine events, network messages,
          and the registry's counters and histogram counts/sums, by name. *)
  hists : (string * Obs.Histogram.t) list;
      (** whole-round histograms the per-layer metrics read quantiles of. *)
  resp_ms : float array;  (** simulated response times (load rounds). *)
  timed_calls : (string * int * int) list;
      (** ledger run: (name, calls, ns) of the benchmark's own timed calls
          into the program. *)
  per_call_ns : (string * int array) list;
      (** ledger run: host time of each call into a pipeline, by name. *)
  depths : int array;  (** ledger run: event-queue depth at each slice end. *)
  gc_ns : int;  (** ledger run: collection time in the measured phase. *)
}

(* The registry flattened to exact integers: counters as they are,
   histograms as [name#n] (samples) and [name#sum]. Max gauges are not
   additive over a phase and are left out. *)
let flatten registry =
  List.concat_map
    (fun (name, v) ->
      match v with
      | Obs.Registry.V_counter c -> [ (name, c) ]
      | Obs.Registry.V_gauge _ -> []
      | Obs.Registry.V_hist h -> [ (name ^ "#n", Obs.Histogram.count h); (name ^ "#sum", Obs.Histogram.sum h) ])
    (Obs.Registry.bindings registry)

(* [after - before], by name; both are sorted by name. *)
let delta ~before after =
  List.map (fun (name, v) -> (name, v - Option.value (List.assoc_opt name before) ~default:0)) after

(* Sums entries by name; the result is sorted by name. *)
let merge_counts lists =
  let tbl = Hashtbl.create 64 in
  List.iter
    (List.iter (fun (name, v) ->
         Hashtbl.replace tbl name (v + Option.value (Hashtbl.find_opt tbl name) ~default:0)))
    lists;
  List.sort (fun (a, _) (b, _) -> String.compare a b) (Hashtbl.fold (fun k v acc -> (k, v) :: acc) tbl [])

(* Everything about a round that must repeat bit for bit at its seed. *)
let fingerprint r =
  let b = Buffer.create 4096 in
  Printf.bprintf b "%d/%d/%d|" r.attempted r.ops r.failed;
  List.iter (fun (name, v) -> Printf.bprintf b "%s=%d;" name v) r.counts;
  List.iter (fun (name, h) -> Printf.bprintf b "%s:%d/%d;" name (Obs.Histogram.count h) (Obs.Histogram.sum h)) r.hists;
  Array.iter (fun x -> Printf.bprintf b "%h," x) r.resp_ms;
  Digest.to_hex (Digest.string (Buffer.contents b))
