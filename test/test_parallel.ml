(* Tests for the Parallel.Domain_pool fan-out: pool semantics (ordering,
   exceptions, worker-count resolution) and the determinism contract — the
   experiment sweeps and explorer storms must produce byte-identical output
   at any worker count. *)

module Pool = Parallel.Domain_pool

let check_bool = Alcotest.(check bool)
let check_int = Alcotest.(check int)

(* ---- Pool semantics ---- *)

let test_map_empty () =
  Alcotest.(check (list int)) "empty in, empty out" [] (Pool.map ~jobs:4 succ [])

let test_map_jobs1_equals_list_map () =
  let items = List.init 100 Fun.id in
  Alcotest.(check (list int)) "jobs=1 is List.map"
    (List.map (fun x -> (x * x) + 1) items)
    (Pool.map ~jobs:1 (fun x -> (x * x) + 1) items)

let test_map_preserves_order () =
  (* More items than workers, uneven per-item cost: results must still be
     joined by index, not completion order. *)
  let items = List.init 500 Fun.id in
  let f x =
    let n = ref 0 in
    for _ = 1 to (x mod 17) * 1000 do
      incr n
    done;
    string_of_int (x + !n - !n)
  in
  Alcotest.(check (list string)) "indexed join" (List.map string_of_int items)
    (Pool.map ~jobs:4 f items)

let test_map_array_matches_map () =
  let items = Array.init 37 Fun.id in
  Alcotest.(check (array int)) "array variant" (Array.map succ items)
    (Pool.map_array ~jobs:3 succ items)

let test_run_all () =
  let thunks = List.init 20 (fun i () -> i * 3) in
  Alcotest.(check (list int)) "thunks in order" (List.init 20 (fun i -> i * 3))
    (Pool.run_all ~jobs:4 thunks)

exception Boom of int

let test_exception_propagates_lowest_index () =
  (* Indices 3, 10, 17, ... all raise; the re-raised one must be the lowest
     regardless of which worker hit it first. *)
  let f i = if i mod 7 = 3 then raise (Boom i) else i in
  let raised =
    try
      ignore (Pool.map ~jobs:4 f (List.init 100 Fun.id));
      None
    with Boom i -> Some i
  in
  Alcotest.(check (option int)) "lowest failing index" (Some 3) raised

let test_jobs_resolution () =
  check_bool "default is at least one" true (Pool.default_jobs () >= 1);
  Pool.set_default_jobs 3;
  check_int "override wins" 3 (Pool.default_jobs ());
  Alcotest.check_raises "zero rejected"
    (Invalid_argument "Domain_pool.set_default_jobs: need at least one worker") (fun () ->
      Pool.set_default_jobs 0);
  Pool.set_default_jobs 1

(* ---- Determinism across worker counts ---- *)

let read_file path =
  let ic = open_in_bin path in
  let s = really_input_string ic (in_channel_length ic) in
  close_in ic;
  s

(* Captures what [f] prints to stdout, byte for byte. *)
let capture_stdout f =
  let old = Unix.dup Unix.stdout in
  let tmp = Filename.temp_file "groupsafe_capture" ".txt" in
  let fd = Unix.openfile tmp [ Unix.O_WRONLY; Unix.O_CREAT; Unix.O_TRUNC ] 0o600 in
  flush stdout;
  Unix.dup2 fd Unix.stdout;
  Unix.close fd;
  Fun.protect
    ~finally:(fun () ->
      flush stdout;
      Unix.dup2 old Unix.stdout;
      Unix.close old)
    f;
  let s = read_file tmp in
  Sys.remove tmp;
  s

(* The report echoes the CSV path, so both runs must share one. *)
let fig9_output jobs csv_path trace_out metrics_out =
  Pool.set_default_jobs jobs;
  let table =
    capture_stdout (fun () ->
        Harness.Experiment.fig9 ~seed:11L ~loads:[ 20.; 30. ] ~measure_s:2. ~replications:2
          ~csv_path ~trace_out ~metrics_out ())
  in
  (table, read_file csv_path, read_file trace_out, read_file metrics_out)

let test_fig9_identical_across_jobs () =
  let csv_path = Filename.temp_file "groupsafe_fig9" ".csv" in
  let trace_out = Filename.temp_file "groupsafe_fig9" ".trace.json" in
  let metrics_out = Filename.temp_file "groupsafe_fig9" ".metrics.json" in
  let table_1, csv_1, trace_1, metrics_1 = fig9_output 1 csv_path trace_out metrics_out in
  let table_4, csv_4, trace_4, metrics_4 = fig9_output 4 csv_path trace_out metrics_out in
  Sys.remove csv_path;
  Sys.remove trace_out;
  Sys.remove metrics_out;
  Pool.set_default_jobs 1;
  check_bool "table is non-trivial" true (String.length table_1 > 100);
  check_bool "trace is non-trivial" true (String.length trace_1 > 100);
  check_bool "metrics are non-trivial" true (String.length metrics_1 > 100);
  Alcotest.(check string) "report table byte-identical" table_1 table_4;
  Alcotest.(check string) "fig9 csv byte-identical" csv_1 csv_4;
  Alcotest.(check string) "chrome trace byte-identical" trace_1 trace_4;
  Alcotest.(check string) "metrics dump byte-identical" metrics_1 metrics_4

(* The per-cell registries are merged in index order after the worker
   join; folding them must give one byte string at any worker count. *)
let merged_metrics jobs =
  Pool.set_default_jobs jobs;
  let points =
    Pool.map
      (fun (technique, load_tps) ->
        Harness.Experiment.run_load_point ~seed:13L ~measure_s:2. technique ~load_tps)
      [
        (Groupsafe.System.Dsm Groupsafe.Dsm_replica.Group_safe_mode, 20.);
        (Groupsafe.System.Dsm Groupsafe.Dsm_replica.Group_safe_mode, 30.);
        (Groupsafe.System.Dsm Groupsafe.Dsm_replica.Group_one_safe_mode, 20.);
        (Groupsafe.System.Dsm Groupsafe.Dsm_replica.Group_one_safe_mode, 30.);
      ]
  in
  let merged = Obs.Registry.create () in
  List.iter
    (fun p -> Obs.Registry.merge_into ~into:merged p.Harness.Experiment.registry)
    points;
  Obs.Export.to_json [ { Obs.Export.name = "sweep"; registry = merged } ]

let test_merged_registry_identical_across_jobs () =
  let m1 = merged_metrics 1 in
  let m4 = merged_metrics 4 in
  Pool.set_default_jobs 1;
  check_bool "merged metrics non-trivial" true (String.length m1 > 100);
  Alcotest.(check string) "merged registry byte-identical" m1 m4

(* The broadcast-ceiling study fans (load x engine-tuning) cells over the
   pool; tuned engines (batched, ring) must stay as deterministic as the
   seed engine. *)
let ceiling_output jobs =
  Pool.set_default_jobs jobs;
  capture_stdout (fun () ->
      Harness.Experiment.broadcast_ceiling ~seed:7L ~loads:[ 40.; 640. ] ~measure_s:2. ())

let test_ceiling_identical_across_jobs () =
  let c1 = ceiling_output 1 in
  let c4 = ceiling_output 4 in
  Pool.set_default_jobs 1;
  check_bool "ceiling report non-trivial" true (String.length c1 > 100);
  Alcotest.(check string) "ceiling report byte-identical" c1 c4

let explorer_verdict jobs technique =
  Pool.set_default_jobs jobs;
  let module E = Check.Explorer in
  let cfg = E.default_config ~predicate:E.Any_loss ~nemesis:true technique in
  E.render_result
    (E.explore ~seed:9L ~budget:60 ~max_exhaustive_events:0 ~max_random_events:3 cfg)

let test_explorer_storms_identical_across_jobs () =
  (* Group-safe storms find the whole-group-crash loss (counterexample path,
     including runs_to_find and the shrunk trace); 2-safe storms certify
     loss-free (full-budget path). Both must render identically at any
     worker count. *)
  let group_safe = Groupsafe.System.Dsm Groupsafe.Dsm_replica.Group_safe_mode in
  let two_safe = Groupsafe.System.Dsm Groupsafe.Dsm_replica.Two_safe_mode in
  let gs_1 = explorer_verdict 1 group_safe in
  let gs_4 = explorer_verdict 4 group_safe in
  let ts_1 = explorer_verdict 1 two_safe in
  let ts_4 = explorer_verdict 4 two_safe in
  Pool.set_default_jobs 1;
  Alcotest.(check string) "group-safe verdict byte-identical" gs_1 gs_4;
  Alcotest.(check string) "2-safe verdict byte-identical" ts_1 ts_4

let test_explorer_exhaustive_identical_across_jobs () =
  (* The Fig. 5 loss is found in the bounded-exhaustive phase, which
     replays over the pool like the storms do. *)
  let fig5 jobs =
    Pool.set_default_jobs jobs;
    let module E = Check.Explorer in
    let cfg =
      E.default_config ~predicate:E.Any_loss
        (Groupsafe.System.Dsm Groupsafe.Dsm_replica.Group_safe_mode)
    in
    E.render_result (E.explore ~seed:42L ~budget:500 cfg)
  in
  let v1 = fig5 1 in
  let v4 = fig5 4 in
  Pool.set_default_jobs 1;
  let exhaustive = "(exhaustive phase)" in
  let n = String.length exhaustive in
  check_bool "found in the exhaustive phase" true
    (List.exists
       (fun i -> String.sub v1 i n = exhaustive)
       (List.init (String.length v1 - n + 1) Fun.id));
  Alcotest.(check string) "Fig. 5 rediscovery byte-identical" v1 v4

(* ---- Sharded determinism ---- *)

(* The sharded runner parallelises ACROSS shard domains inside one run
   (windowed exchange), not across sweep cells — [jobs] is threaded to
   [Sharded_system.run_for]. Three shards deliberately do not divide two
   or four workers, and four is [#shards + 1]; the windowed barrier must
   make all of them byte-identical. *)
let sharded_point jobs =
  let p =
    Harness.Experiment.run_sharded_load_point ~seed:17L ~warmup_s:1. ~measure_s:2. ~shards:3
      ~cross_fraction:0.3 ~zipf_s:1.1 ~jobs
      (Groupsafe.System.Dsm Groupsafe.Dsm_replica.Group_safe_mode)
      ~load_tps:60.
  in
  let summary =
    Printf.sprintf "completed=%d mean=%h p95=%h abort=%h tput=%h" p.Harness.Experiment.completed
      p.Harness.Experiment.mean_ms p.Harness.Experiment.p95_ms p.Harness.Experiment.abort_rate
      p.Harness.Experiment.throughput_tps
  in
  ( summary,
    Obs.Export.to_json
      [ { Obs.Export.name = "sharded"; registry = p.Harness.Experiment.registry } ] )

let test_sharded_identical_across_jobs () =
  let s1, r1 = sharded_point 1 in
  let s2, r2 = sharded_point 2 in
  let s4, r4 = sharded_point 4 in
  check_bool "sharded registry non-trivial" true (String.length r1 > 100);
  check_bool "sharded run did work" true (String.length s1 > 10);
  Alcotest.(check string) "metrics identical, jobs 1 vs 2 (3 shards)" s1 s2;
  Alcotest.(check string) "metrics identical, jobs 1 vs 4 (shards+1)" s1 s4;
  Alcotest.(check string) "registry identical, jobs 1 vs 2 (3 shards)" r1 r2;
  Alcotest.(check string) "registry identical, jobs 1 vs 4 (shards+1)" r1 r4

(* Shard storms drive whole Shard_check runs (windowed engines, oracles,
   shrinking) on top of the pool default; the rendered verdict must not
   depend on the worker count. *)
let shard_storm_verdict jobs =
  Pool.set_default_jobs jobs;
  let module SC = Shard.Shard_check in
  let cfg =
    SC.default_config ~shards:2 ~cross_every:2
      (Groupsafe.System.Dsm Groupsafe.Dsm_replica.Two_safe_mode)
  in
  SC.render_result (SC.storm ~seed:42L ~budget:6 cfg)

let test_shard_storms_identical_across_jobs () =
  let v1 = shard_storm_verdict 1 in
  let v4 = shard_storm_verdict 4 in
  Pool.set_default_jobs 1;
  check_bool "storm verdict non-trivial" true (String.length v1 > 50);
  Alcotest.(check string) "shard storm verdict byte-identical" v1 v4

let () =
  Alcotest.run "parallel"
    [
      ( "domain_pool",
        [
          Alcotest.test_case "empty input" `Quick test_map_empty;
          Alcotest.test_case "jobs=1 equals List.map" `Quick test_map_jobs1_equals_list_map;
          Alcotest.test_case "order preserved" `Quick test_map_preserves_order;
          Alcotest.test_case "map_array" `Quick test_map_array_matches_map;
          Alcotest.test_case "run_all" `Quick test_run_all;
          Alcotest.test_case "lowest-index exception" `Quick test_exception_propagates_lowest_index;
          Alcotest.test_case "jobs resolution" `Quick test_jobs_resolution;
        ] );
      ( "determinism",
        [
          Alcotest.test_case "fig9 sweep across jobs" `Quick test_fig9_identical_across_jobs;
          Alcotest.test_case "merged obs registry across jobs" `Quick
            test_merged_registry_identical_across_jobs;
          Alcotest.test_case "broadcast ceiling across jobs" `Quick
            test_ceiling_identical_across_jobs;
          Alcotest.test_case "nemesis storms across jobs" `Quick
            test_explorer_storms_identical_across_jobs;
          Alcotest.test_case "sharded run across jobs" `Quick test_sharded_identical_across_jobs;
          Alcotest.test_case "shard storms across jobs" `Quick
            test_shard_storms_identical_across_jobs;
          Alcotest.test_case "explorer exhaustive phase across jobs" `Quick
            test_explorer_exhaustive_identical_across_jobs;
        ] );
    ]
