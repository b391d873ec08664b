(* Host diagnostics that explain noise; none of them is a result. Linux
   only: elsewhere they read 0. *)

let read_first_line path =
  match In_channel.with_open_text path In_channel.input_line with
  | line -> line
  | exception Sys_error _ -> None

let fields line = List.filter (fun s -> s <> "") (String.split_on_char ' ' line)

(* Steal ticks of the whole machine: the 8th value of /proc/stat's "cpu"
   line (time the hypervisor ran someone else while this VM wanted a CPU). *)
let steal_ticks () =
  match read_first_line "/proc/stat" with
  | Some line -> (
    match fields line with
    | "cpu" :: _user :: _nice :: _sys :: _idle :: _iowait :: _irq :: _softirq :: steal :: _ ->
      Option.value (int_of_string_opt steal) ~default:0
    | _ -> 0)
  | None -> 0

(* Nanoseconds this thread has waited on a runqueue (second field of
   /proc/thread-self/schedstat). Its run-time field moves in scheduler-tick
   steps on some VMs, so slices are timed with the monotonic clock
   instead. *)
let runq_wait_ns () =
  match read_first_line "/proc/thread-self/schedstat" with
  | Some line -> (
    match fields line with _run :: wait :: _ -> Option.value (int_of_string_opt wait) ~default:0 | _ -> 0)
  | None -> 0

type snapshot = { steal : int; runq_ns : int }

let snapshot () = { steal = steal_ticks (); runq_ns = runq_wait_ns () }
let since s0 = let s1 = snapshot () in { steal = s1.steal - s0.steal; runq_ns = s1.runq_ns - s0.runq_ns }
