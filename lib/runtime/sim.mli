(** Discrete-event execution of composite transactions over a component
    topology — the runtime counterpart of the paper's (unpublished)
    prototype composite system.

    Clients submit composite transactions built from {!Template.t} values.
    Every component schedules the operations submitted to it under a
    concurrency-control protocol:

    - {!Serial}: a component admits one root transaction at a time
      (exclusive component locks retained to root commit) — the maximally
      conservative baseline;
    - {!Locking}[ { closed = true }]: semantic strict two-phase locking with
      {e closed} nesting — a subtransaction's locks are retained until the
      root commits (distributed multilevel 2PL; always produces Comp-C
      histories);
    - {!Locking}[ { closed = false }]: {e open} nesting — a
      subtransaction's locks are released when it completes, exposing
      maximal concurrency.  Safe exactly when conflict specifications are
      {e faithful} (higher-level conflicts cover lower-level interference);
      with unfaithful specifications it can and does emit histories that the
      Comp-C checker rejects, which experiment E10 demonstrates;
    - {!Certify}: lock-free execution validated at commit by the Comp-C
      checker itself (always-correct output, optimistic concurrency).

    Cross-component deadlocks are broken by lock-wait timeouts: the root
    transaction aborts (its store effects are undone via
    {!Repro_storage.Store.abort}), waits out a randomized backoff, and
    retries.  Only committed executions enter the emitted history.

    The emitted {!Repro_model.History.t} maps components to schedules, the
    completion order of each component's operations to its execution log,
    sequential template nodes to strong intra-transaction orders, and each
    client's session order to strong input orders between its roots (when
    they share a root component).  Feeding that history to
    {!Repro_core.Compc} closes the loop between protocol and theory. *)

open Repro_model

type protocol =
  | Serial
  | Locking of { closed : bool }
  | Certify
      (** Lock-free optimistic execution with {e backward validation}: a
          root transaction commits only if the history of all previously
          committed transactions extended with it is still Comp-C (decided
          by {!Repro_core.Compc} itself); otherwise it aborts and retries.
          Because every commit re-certifies the whole committed prefix,
          the emitted history is correct by construction — this is the
          certification-scheduler reading of the paper's "CC scheduling".
          Cost: one full Comp-C decision per commit attempt. *)

type params = {
  protocol : protocol;
  clients : int;  (** Concurrent sequential sessions. *)
  txs_per_client : int;
  mean_service : float;  (** Mean leaf service time (exponential-ish). *)
  think : float;  (** Pause between a commit and the client's next submission. *)
  lock_timeout : float;  (** Wait budget before a blocked acquisition aborts the root. *)
  backoff : float;  (** Mean randomized delay before a retry. *)
  dispatch_delay : float;
      (** Mean invocation latency before an operation reaches its component
          (randomized per call); [0.] dispatches instantaneously, which
          makes every transaction acquire its locks atomically and hides
          the cross-component races open nesting is prone to. *)
  max_attempts : int;  (** Retries before a transaction is dropped (counted in [given_up]). *)
  seed : int;
  certify_full_recheck : bool;
      (** {!Certify} only.  [false] (the default): certification keeps an
          incremental {!Repro_core.Engine} session over the committed
          prefix — extend it by the candidate, take the verdict, undo on
          reject.
          [true]: the legacy oracle — re-run the full batch checker on the
          whole prefix at every commit attempt.  Identical verdicts (the
          engine's pinned verdict equivalence), so identical simulations;
          the flag exists for the E12 end-to-end comparison and
          equivalence tests. *)
}

val default_params : params
(** Serial protocol, 4 clients x 5 transactions, unit service time,
    incremental certification. *)

type stats = {
  committed : int;
  aborts : int;  (** Attempts that timed out and were retried. *)
  given_up : int;  (** Logical transactions dropped after [max_attempts]. *)
  lock_waits : int;  (** Blocked acquisitions (including those that later succeeded). *)
  makespan : float;  (** Simulated time until the last commit. *)
  mean_latency : float;  (** Mean commit latency of logical transactions, first submission to commit. *)
  history : History.t;  (** The committed composite execution. *)
}

val protocol_name : protocol -> string
(** ["serial"], ["closed"], ["open"] or ["certify"] — the CLI spelling,
    also used to suffix per-protocol metric names. *)

val run :
  ?spans:Repro_obs.Span.t ->
  ?metrics:Repro_obs.Metrics.t ->
  ?recorder:Repro_obs.Recorder.t ->
  params ->
  Template.topology ->
  gen:(Repro_workload.Prng.t -> client:int -> seq:int -> Template.t) ->
  stats
(** Run the simulation: client [k] submits [gen rng ~client:k ~seq:0],
    then [~seq:1] after that commits, and so on.  Deterministic for a given
    [params.seed] — telemetry never draws from the random stream.

    With [spans] (default {!Repro_obs.Span.null}), every scheduler event is
    recorded as a span in category [sim] on its client's trace (one trace
    id per client, minted at the start of the run): [dispatch],
    [lock_blocked], [lock_wait] (closed with outcome [acquired] or
    [timeout]), [lock_acquire], [abort], [backoff], [retry], [give_up],
    [commit] and — under {!Certify} — [certify_check] (whose duration is
    the checker's wall-clock cost).  Timestamps are simulated time in
    seconds, 1 unit = 1 ms; [lock_wait], [backoff] and [certify_check]
    have a duration, the other events are zero-length.  The lock events
    name their component in the label [component].

    With [metrics] (default {!Repro_obs.Metrics.null}), counters
    [sim.committed], [sim.aborts], [sim.given_up], [sim.lock_waits],
    [sim.lock_acquires], [sim.retries], [sim.dispatches],
    [sim.certify_checks], [sim.certify_rejects] match the returned {!stats}
    where they overlap; histograms [sim.latency],
    [sim.lock_wait_time.<protocol>], [sim.lock_hold_time.<protocol>],
    [sim.certify_wall_s] (monotonic wall clock) and [sim.certify_cpu_s]
    record distributions; gauges [sim.makespan], [sim.mean_latency] and
    [sim.throughput] summarize the run.  The incremental certification
    path additionally feeds the [monitor.*] metrics of
    {!Repro_core.Engine.extend}.

    With [recorder] (default {!Repro_obs.Recorder.null}), the scheduling
    decisions that change an execution's fate are kept as a bounded
    flight-recorder tail: [commit] (Info), [retry] (Debug), [abort]
    (Warn), and [give_up] / [certify_reject] (Error), each labeled with
    [client]/[seq]/[attempt] and stamped with the {e simulated} clock so a
    dumped tail reads in schedule order.  The certification session keeps
    its own wall-clock timeline and does not share this ring. *)
