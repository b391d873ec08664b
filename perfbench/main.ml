(* The repository benchmark's command line:

     main.exe --workload NAME --seed N --seconds S --trace 0|1

   Prints every metric by name and unit, then, as its last line, one JSON
   object with the keys correct, attempted, failed and metrics: the
   end-to-end metrics, or with --trace 1 the per-layer ledger. *)

let usage () =
  Printf.eprintf "usage: main.exe --workload {%s} --seed N --seconds S --trace 0|1\n"
    (String.concat "|" (List.map (fun (w : Perfbench.Bench.workload) -> w.name) Perfbench.Bench.workloads));
  exit 2

let () =
  let workload = ref None and seed = ref None and seconds = ref None and trace = ref None in
  let rec parse = function
    | "--workload" :: v :: rest ->
      workload := Perfbench.Bench.find v;
      parse rest
    | "--seed" :: v :: rest ->
      seed := int_of_string_opt v;
      parse rest
    | "--seconds" :: v :: rest ->
      seconds := float_of_string_opt v;
      parse rest
    | "--trace" :: (("0" | "1") as v) :: rest ->
      trace := Some (v = "1");
      parse rest
    | [] -> ()
    | arg :: _ ->
      Printf.eprintf "main.exe: bad argument %S\n" arg;
      usage ()
  in
  parse (List.tl (Array.to_list Sys.argv));
  match (!workload, !seed, !seconds, !trace) with
  | Some (w : Perfbench.Bench.workload), Some seed, Some seconds, Some trace when seconds > 0. ->
    Printf.printf "workload %s, seed %d, %.0f s, %s\n%!" w.name seed seconds
      (if trace then "ledger run" else "timed run");
    let r = Perfbench.Bench.run w ~seed ~seconds ~trace in
    List.iter
      (fun x -> Printf.printf "%-36s %18.6f %s\n" x.Perfbench.Bench.name x.Perfbench.Bench.value x.Perfbench.Bench.unit_)
      r.Perfbench.Bench.report;
    List.iter (Printf.printf "CHECK FAILED: %s\n") r.Perfbench.Bench.notes;
    print_endline (Perfbench.Bench.result_line r)
  | _ -> usage ()
