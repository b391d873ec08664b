(** The unsharded checker: the one-group deployment of {!Pipeline}.

    Each replay builds a fresh {!Groupsafe.System.t} (delivery-delay gates
    on the servers the schedule delays), submits a fixed write-only load,
    and runs the schedule through the shared fault applier, repair pass
    and oracle stack. "Lost" therefore means {e permanently} lost — gone
    even though the whole group came back on a connected network.

    Two search predicates:

    - {!Any_loss} asks "can this configuration lose an acknowledged
      transaction at all?" — the Fig. 5 question. For classical atomic
      broadcast (group-safe) the answer is yes (whole-group crash before
      the asynchronous flushes), and the explorer rediscovers it; for
      end-to-end broadcast and 2PC the answer must be no.
    - {!Violation} asks "did a loss occur that the technique's advertised
      level does not permit?" ({!Groupsafe.Safety_checker.losses_allowed},
      Tables 2/3). No correct implementation fails this under any
      schedule.

    Exploration is deterministic per seed: a bounded-exhaustive pass over
    small event windows first (so the canonical counterexamples come out
    smallest), then seeded random storms until the budget runs out. The
    first failing schedule is shrunk and re-run with tracing on, so the
    counterexample carries its full {!Sim.Trace}. *)

type predicate = Pipeline.predicate = Any_loss | Violation

type config = {
  technique : Groupsafe.System.technique;
  predicate : predicate;
  params : Workload.Params.t;  (** [params.servers] is the base server count. *)
  txs : int;  (** write-only transactions on disjoint items. *)
  spacing : Sim.Sim_time.span;  (** transaction [i] is submitted at [i * spacing]. *)
  horizon : Sim.Sim_time.span;  (** fault window; every server is recovered here. *)
  quiescence : Sim.Sim_time.span;  (** settle time after the final recovery. *)
  nemesis : bool;
      (** generate network faults (partitions, loss windows, duplications)
          alongside crashes, and certify healing convergence after every
          run. *)
  liveness : bool;
      (** fairness-constrained liveness mode: storms draw only {e fair}
          schedules ({!Schedule.fairness_violation}; unfair candidates are
          rejected, tallied and redrawn or repaired), the exhaustive pass
          is skipped (its universe is almost entirely unfair), the
          {!Liveness} oracle is certified after every run and folded into
          [failed], and shrinking refuses candidates that would break
          fairness. Implies [nemesis]. *)
  storage : bool;
      (** storage-fault storm mode: storms additionally draw disk-fault
          families (torn writes, lying fsyncs, record corruption — each
          paired with a crash+recover of the same server — plus slow-disk
          and disk-full windows), the exhaustive pass is skipped (a
          destructive arm without its crash is inert), and the
          {!Durability} oracle replaces the loss predicate. Does {e not}
          imply [nemesis]. *)
  max_decision_us : int option;
      (** liveness mode: bound every decided transaction's
          submission-to-decision latency; decisions beyond it fail the
          verdict as decided-but-late ({!Liveness.verdict.late}). *)
  tuning : Gcs.Bcast_tuning.t;
      (** broadcast-engine tuning (batching, pipelining window,
          dissemination backend) for the Dsm techniques' ordering layer —
          the same storms certify the batched, pipelined and ring
          configurations. Default: the seed engine. *)
  mutate : Groupsafe.System.t -> unit;
      (** oracle-mutation hook, applied to every freshly built system
          before any load (default: nothing). Used to re-break fixed
          protocol bugs ({!Groupsafe.System.break_no_accept_retransmit},
          {!Groupsafe.System.break_early_decision}) and prove the oracles
          would have caught them. *)
}

val default_params : Workload.Params.t
(** 3 servers, 64 items, one client per server, no hot spot. *)

val default_config :
  ?predicate:predicate ->
  ?nemesis:bool ->
  ?liveness:bool ->
  ?storage:bool ->
  ?max_decision_us:int ->
  ?tuning:Gcs.Bcast_tuning.t ->
  ?mutate:(Groupsafe.System.t -> unit) ->
  Groupsafe.System.technique ->
  config
(** 3 servers, a small database, a light failure detector, 2 transactions
    5 ms apart, a 60 ms fault window and 4 s of quiescence. [predicate]
    defaults to {!Violation}, [nemesis], [liveness] and [storage] to
    [false] ([liveness:true] turns [nemesis] on too; [storage] does not);
    delivery-delay events are enabled for the broadcast-based (Dsm)
    techniques only. *)

type outcome = {
  schedule : Schedule.t;
  report : Groupsafe.Safety_checker.report;
  converge : Groupsafe.Convergence.verdict option;  (** [Some] iff [config.nemesis]. *)
  liveness : Liveness.verdict option;  (** [Some] iff [config.liveness]. *)
  durability : Durability.verdict option;
      (** [Some] iff [config.storage]; it then replaces the loss predicate. *)
  failed : bool;  (** the {!Pipeline.certify} verdict. *)
  trace : string;  (** full rendered {!Sim.Trace}; [""] unless traced. *)
  highlights : string;  (** protocol-level trace lines only. *)
}

val run : ?trace:bool -> config -> Schedule.t -> outcome
(** Replay one schedule through {!Pipeline}: load, faults, horizon,
    repair, quiescence, oracles. Deterministic: same config and schedule,
    same outcome, byte for byte when traced. *)

type phase = Exhaustive | Random_storm

type counterexample = {
  original : Schedule.t;
  found_in : phase;
  runs_to_find : int;  (** schedules executed up to and including the failure. *)
  shrunk : Schedule.t;
  shrink_rounds : int;  (** accepted shrink steps. *)
  shrink_runs : int;  (** candidate re-executions during shrinking. *)
  outcome : outcome;  (** the shrunk schedule's traced outcome. *)
}

type result = {
  config : config;
  seed : int64;
  budget : int;
  runs : int;  (** schedules executed in the search phases. *)
  rejections : (string * int) list;
      (** liveness mode: fairness-violation reason -> number of storm
          candidates rejected for it, in first-seen order. Candidates are
          drawn sequentially up front, so the tally is byte-identical at
          any worker count. Empty outside liveness mode. *)
  counterexample : counterexample option;
}

val exhaustive :
  config ->
  slots:Sim.Sim_time.span list ->
  max_events:int ->
  recoveries:bool ->
  Schedule.t Seq.t
(** Every schedule whose events are a combination of at most [max_events]
    distinct (slot, event) pairs, smallest first. The universe is, per
    slot, a crash of each server and (when [recoveries]) a recovery of
    each server; slots and crashes come first, so "crash everyone at the
    first slot" is the first schedule of its size. With [config.nemesis]
    each slot additionally offers a single-server partition per server, a
    heal, and a duplicate-next per server (loss windows are storm-only:
    their probability has no natural small universe). *)

val repair_fair : horizon:Sim.Sim_time.span -> Schedule.t -> Schedule.t
(** Deterministically turn any schedule into a fair one: drop events past
    the horizon, clamp loss windows and delays to it, and append the
    missing recoveries and heal at the horizon. Used as the storm
    generator's fallback after repeated unfair draws. *)

val random_schedule : config -> Sim.Rng.t -> max_events:int -> Schedule.t
(** One random storm. Without [config.nemesis] or [config.storage]:
    crashes, recoveries and (Dsm techniques only) delivery delays,
    exactly as before. With [nemesis], each network-fault family draws
    from its own stream split off [rng] in a fixed order — crashes, then
    an optional minority partition+heal pair, an optional loss window
    (drop probability in [0.2, 0.9)), and up to two duplications. With
    [storage], the disk-fault families follow, again one split stream
    each: an optional torn-write arm, lying-fsync arms (sometimes the
    whole group at once — the only pattern that defeats every level), an
    optional corruption arm — each destructive arm paired with a crash
    and recovery of its server — plus optional slow-disk (10-100x) and
    disk-full windows. Storms replay deterministically per seed and
    adding one family never perturbs another. *)

val explore :
  ?max_exhaustive_events:int ->
  ?max_random_events:int ->
  seed:int64 ->
  budget:int ->
  config ->
  result
(** Search up to [budget] schedules — the {!exhaustive} pass (slots 2 ms
    and 30 ms, with recoveries), then seeded random storms — as one
    candidate array through {!Pipeline.first_failing}, shrink the first
    failure ({!Pipeline.shrink}, refusing unfair candidates in liveness
    mode) and replay it with tracing. Storms are generated up front on the
    calling domain, so the result is deterministic per ([seed], [budget],
    config) and byte-identical at any worker count. Shrink re-runs are not
    charged against [budget]. *)

(** {2 Directed scenario: a minority partition must stall, not diverge} *)

type stall_outcome = {
  minority : int list;  (** the cut-off server indices. *)
  minority_acked_during : int;  (** acks the minority gave while cut off (want 0). *)
  majority_committed_during : bool;  (** the majority side kept committing. *)
  minority_applied_during : bool;  (** the minority applied anything while cut off (want false). *)
  resumed : bool;  (** the minority's transaction committed everywhere after the heal. *)
  verdict : Groupsafe.Convergence.verdict;
  ok : bool;  (** stalled, majority progressed, resumed, converged. *)
}

val minority_stall : config -> stall_outcome
(** [minority_stall config] settles the group for 1 s, partitions server 0
    away, submits one transaction to each side, holds the cut for 2 s,
    heals, waits [config.quiescence] and certifies. Under
    uniform delivery the minority must acknowledge and apply {e nothing}
    while cut off, then catch up and answer after the heal. Meaningful for
    the broadcast-based (Dsm) techniques; eager 2PC cannot commit on
    either side with a member unreachable, so [ok] is honestly [false]
    there. *)

(** {2 Directed scenario family: repeated leader kills mid-broadcast} *)

type takeover_outcome = {
  kills : int;  (** rounds requested. *)
  killed : int list;  (** leaders killed, in kill order. *)
  takeovers : int;  (** rounds where a {e different} leader was established
                        before the dead one was revived. *)
  submitted_txs : int;  (** transactions put in flight (one per kill round). *)
  liveness : Liveness.verdict;
  converge : Groupsafe.Convergence.verdict;
  ok : bool;
      (** every kill round submitted and handed over, every transaction
          decided, converged. *)
}

val leader_takeover : config -> takeover_outcome
(** [leader_takeover config] settles the group for 1 s, then three
    times over: finds the current ordering leader, submits a
    transaction through a {e different} delegate (which stays up, so the
    liveness oracle owes its decision), crashes the leader half a
    millisecond later — mid-broadcast — waits for a successor, revives
    the dead leader, and finally certifies liveness and convergence after
    [config.quiescence]. One server is down at a time, so the group never
    fails: a correct ordering protocol must re-drive the dead leader's
    in-flight slots and decide every round's transaction. Needs at least
    3 servers and an ordering layer (Dsm techniques). *)

(** {2 Directed scenario: tear the leader's WAL tail, recovery must repair} *)

type torn_outcome = {
  t_rounds : int;  (** rounds requested. *)
  t_fired : int;  (** torn writes that actually mutilated a tail record. *)
  t_repaired : int;  (** torn tails the recovery scans truncated. *)
  t_reports : int;  (** recoveries whose repair report was non-empty. *)
  t_verdict : Durability.verdict;
  t_ok : bool;
      (** every round fired, every tear repaired, every recovery reported
          it, and the durability verdict is clean. *)
}

val torn_leader_tail : config -> torn_outcome
(** [torn_leader_tail config] settles the group for 1 s, then three
    times over: submits a transaction through the current
    ordering leader, waits for its commit record to reach the WAL, arms a
    torn write on that leader and crashes it — mutilating the newest
    durable record into a half-written tail frame — recovers it, and
    checks that the recovery scan produced a non-empty repair report.
    The final durability verdict must account for every tear
    (repaired = scanned) and be clean. Needs at least 3 servers. *)

(** {2 Directed scenario: every disk lies, then the whole group crashes} *)

type lie_outcome = {
  f_level : Groupsafe.Safety.level;
  f_acked : int;  (** acknowledged commits before the group crash. *)
  f_lost : int;  (** of those, permanently lost (expected > 0 at every level). *)
  f_lies_dropped : int;  (** acked-but-volatile records dropped at crash. *)
  f_verdict : Durability.verdict;
  f_ok : bool;
      (** the loss was demonstrated {e and} the verdict stayed clean: the
          classification (delegate crash at 1-safe, group failure at
          group-safe, total storage betrayal at 2-safe) permits it. *)
}

val fsync_lie_group_crash : config -> lie_outcome
(** [fsync_lie_group_crash config] settles the group for 1 s, arms a lying
    fsync on {e every} server, submits two transactions
    through delegate 0, lets acks and propagation land, crashes the whole
    group, recovers it and certifies durability. Every level loses the
    acked transactions (their records were volatile on every disk); what
    the oracle certifies is the {e classification} — 1-safe's loss was
    already permitted by the delegate crash (flagged-but-allowed),
    group-safe's by the group failure, 2-safe's only by the total
    betrayal — so the verdict must report the loss yet stay clean. *)

val pp_phase : Format.formatter -> phase -> unit
val pp_predicate : Format.formatter -> predicate -> unit
val pp_stall : Format.formatter -> stall_outcome -> unit
val pp_takeover : Format.formatter -> takeover_outcome -> unit
val pp_torn : Format.formatter -> torn_outcome -> unit
val pp_lie : Format.formatter -> lie_outcome -> unit

val pp_result : Format.formatter -> result -> unit
(** Search statistics; on failure, the original and shrunk schedules, the
    oracle's report and the protocol-level trace of the shrunk run. *)

val render_result : result -> string
