(** The checker pipeline shared by every deployment shape.

    A check replays one {!Schedule.t} against a fresh deployment: the
    checker submits its own load, {!apply} turns the schedule into faults,
    the deployment runs to the horizon, {!repair} undoes what the schedule
    broke, the deployment runs through quiescence, and {!certify} runs the
    oracle stack. A search replays candidates with {!first_failing} and
    minimises the winner with {!shrink}.

    {!Explorer} is the one-group deployment; [Shard.Shard_check] is the
    sharded one. Global server [gi] is server [gi mod sps] of group
    [gi / sps], where [sps] is the group size. *)

val system_seed : int64
(** The seed of every replayed system: a counterexample is a schedule alone. *)

(** {1 Deployments and faults} *)

type deployment = {
  groups : Groupsafe.System.t array;  (** one replica group each, all of one size. *)
  holds : Sim.Sim_time.span array;
      (** per global server, written by [Delay] events; empty when the
          deployment has no delivery gates and so rejects [Delay]. *)
  link : (Sim.Sim_time.span -> int list list option -> unit) option;
      (** cross-group link hook, told the instant and global groups of every
          [Partition] ([Some]) and [Heal] ([None]) as {!apply} schedules it. *)
}

val delay_gates :
  Schedule.t -> Sim.Sim_time.span array * (int -> (unit -> Sim.Sim_time.span) option)
(** The holds and the [delivery_delay] argument of
    {!Groupsafe.System.create}: only servers the schedule delays get a
    gate, so delay-free schedules run the synchronous delivery path. *)

val apply : deployment -> Schedule.t -> unit
(** Schedule every event on the engine of each group it touches. A
    [Partition] reaches every group — its own members' cut, or a heal when
    it has none — so a new partition replaces the previous one everywhere,
    as {!Net.Network.partition} does. Loss, slow-disk and disk-full windows
    are epoch-guarded: closing an earlier overlapping window leaves a later
    one open. *)

val repair : deployment -> Schedule.t -> unit
(** Heal every network and close the loss window (if the schedule has
    network faults), close every disk window (if it has any), then recover
    every server, so that "lost" after quiescence means permanently lost on
    a connected network and working disks (a disk left full past the
    horizon would wedge recovery itself). Cross-group links are the
    deployment's to restore. *)

(** {1 The oracle stack} *)

type predicate = Any_loss | Violation

type oracles = {
  predicate : predicate;  (** the loss test unless [storage]. *)
  storage : bool;  (** {!Durability} replaces the loss test. *)
  nemesis : bool;  (** certify healing convergence. *)
  liveness : bool;  (** certify {!Liveness}. *)
  max_decision_us : int option;
}

type verdict = {
  report : Groupsafe.Safety_checker.report;
  durability : Durability.verdict option;
  converge : Groupsafe.Convergence.verdict option;
  liveness : Liveness.verdict option;
  failed : bool;  (** the loss test, durability, convergence or liveness failed. *)
}

val certify :
  oracles ->
  delegate_crashed:(int -> Db.Transaction.id -> bool) ->
  Groupsafe.System.t array ->
  verdict array
(** One verdict per group. Safety analysis, durability, convergence (group
    [g] probes with transaction [1_000_000 + g]) and liveness run in that
    order, each over every group before the next. [delegate_crashed g tx]:
    did [tx]'s delegate in group [g] ever crash. *)

(** {1 Search} *)

val first_failing : fails:('a -> bool) -> 'a array -> int option
(** The lowest index whose candidate [fails], replayed over
    {!Parallel.Domain_pool} in batches of twice the worker count until a
    batch fails: the same answer at any worker count. *)

val shrink :
  admissible:(Schedule.t -> bool) ->
  fails:(Schedule.t -> bool) ->
  Schedule.t ->
  Schedule.t * int * int
(** Greedy fixpoint over {!Schedule.shrink}: keep the first admissible
    candidate that still fails, until none does; inadmissible candidates
    never run. Returns the shrunk schedule, accepted rounds and runs. *)

(** {1 Storm family builders} *)

val loss_window : Sim.Rng.t -> window_us:int -> Schedule.event list
(** With probability 1/2, a loss window opening within [window_us]. *)

val minority : Sim.Rng.t -> servers:int -> int list
(** A random non-empty minority of the servers, sorted. *)

val cut : at:Sim.Sim_time.span -> hold:Sim.Sim_time.span -> int list -> Schedule.event list
(** Partition the servers away at [at]; heal after [hold]. *)
