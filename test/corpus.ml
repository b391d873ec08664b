(* The reader shared by the replay corpora (liveness_corpus/,
   storage_corpus/, shard_corpus/): each holds shrunk counterexamples in
   Check.Schedule.serialize form, with replay directives on `# key=value`
   comment lines (Check.Schedule.directives). *)

open Groupsafe

let read_file path = In_channel.with_open_text path In_channel.input_all

(* The corpus's schedule files, sorted. *)
let files dir =
  Sys.readdir dir |> Array.to_list
  |> List.filter (fun f -> Filename.check_suffix f ".sched")
  |> List.sort compare

(* One entry's directive lookup and schedule. *)
let load dir file =
  let text = read_file (Filename.concat dir file) in
  let dirs = Check.Schedule.directives text in
  match Check.Schedule.parse text with
  | Ok schedule -> ((fun key -> List.assoc_opt key dirs), schedule)
  | Error e -> Alcotest.fail (file ^ ": " ^ e)

let technique_of file = function
  | "group-safe" -> System.Dsm Dsm_replica.Group_safe_mode
  | "two-safe" -> System.Dsm Dsm_replica.Two_safe_mode
  | "eager-2pc" -> System.Two_pc
  | "one-safe" -> System.Lazy Lazy_replica.One_safe_mode
  | other -> Alcotest.fail (file ^ ": unknown technique directive " ^ other)

(* A mutation hook breaking every server of the system. *)
let break_all f sys =
  for i = 0 to System.n_servers sys - 1 do
    f sys i
  done
