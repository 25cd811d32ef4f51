(** Incremental Comp-C monitor: amortized prefix certification.

    A monitor holds a growing execution and re-certifies it after each
    extension for the cost of the {e delta}, not the whole history.  Since
    the certification engine landed, this module is a thin facade over
    {!Engine} — a monitor {e is} a session whose only entry point is the
    incremental {!Engine.extend} — kept for its established vocabulary
    (append/undo/stats).  See {!Engine} for the machinery: the conflict
    memo carried by blit, the worklist-saturated closure, the
    verdict-carrying fast path, the new-block delta reduction, the
    incremental order kernel for deltas landing inside the old block, and
    the full fallback on level shifts.

    Verdict equivalence: after any sequence of appends the monitor's
    verdict equals {!Compc.is_correct} on the current history — pinned by
    the qcheck property in [test/test_monitor.ml].  The reported witness
    may differ in inessentials (the serial order places delta roots last;
    a rejection may cite a different — but equally real — cycle).

    {b Extension contract.}  Each appended history must {e extend} the
    previous one: same schedules in the same order; shared nodes keep
    their identifiers, labels, parents and children; new nodes have
    strictly larger identifiers; relations and logs restricted to shared
    nodes are unchanged.  {!History.prefix_by_roots} chains and the
    simulator's deterministic assembly produce exactly this shape.  The
    cheap violations (shrinking, schedule mismatch) raise
    [Invalid_argument]; the rest is the caller's responsibility.

    Values are single-domain, like the history memos they warm. *)

open Repro_order
open Repro_model
open Ids

type t

type verdict =
  | Accepted of id list
      (** Comp-C, with a witness serial order of the root transactions
          (a valid one; not necessarily the batch checker's). *)
  | Rejected of Reduction.failure

val create :
  ?metrics:Repro_obs.Metrics.t ->
  ?recorder:Repro_obs.Recorder.t ->
  ?window:int ->
  unit ->
  t
(** A monitor over the empty prefix (vacuously accepted).  [window]
    (default unbounded) enables bounded-memory streaming: once the window
    holds [window] nodes after an accepted append, the certified prefix
    is folded into a compact summary behind a dense tail of the newest
    nodes and its dense per-node state released — see {!Engine.create}
    (which also says when the bound lapses) and {!Engine.truncate}.  Verdicts are unchanged (parity is
    pinned by [test/test_truncate.ml]); {!undo} across the fold boundary
    is refused.  Raises [Invalid_argument] when [window <= 0].  [metrics]
    (default null) receives counters [monitor.appends],
    [monitor.fastpath_hits], [monitor.delta_hits], [monitor.kernel_hits], the labeled
    [monitor.append{path=...}] series, histogram [monitor.append_wall_s],
    the live [engine.*] state gauges, and the per-append checker metrics
    of the underlying {!Observed} / {!Reduction} calls.  [recorder]
    (default null) receives one flight-recorder event per append — the
    bounded operational prehistory dumped with a violation's evidence. *)

val introspect : ?deep:bool -> t -> Repro_obs.Json.t
(** The underlying session's state report; see {!Engine.introspect}.
    [~deep:false] (default [true]) skips the [Obj.reachable_words] walk —
    the cheap-estimate path for high-frequency polling. *)

val append : t -> History.t -> verdict
(** [append t h] advances the monitor to [h] — which must extend the
    current snapshot (see the contract above) — and returns the verdict
    for [h].  The previous state is retained for one {!undo}. *)

val verdict : t -> verdict option
(** Current verdict; [None] before the first append (empty prefix). *)

val accepted : t -> bool
(** Current prefix is Comp-C ([true] before the first append). *)

val undo : t -> unit
(** Roll back the last {!append} — the certify-reject path of the
    simulator.  Undo depth is one: raises [Invalid_argument] when no
    snapshot is held (before any append, or twice in a row), and also
    when the last append crossed a truncation boundary (the folded state
    cannot be resurrected; the message says so distinctly). *)

val truncate : t -> unit
(** Fold the certified prefix now; see {!Engine.truncate}.  Typically
    unnecessary — pass [?window] to {!create} and the monitor truncates
    itself from the append path. *)

val floor : t -> int
(** Nodes below this id are folded into the summary (0 when never
    truncated); see {!Engine.floor}. *)

val history : t -> History.t option
(** Current snapshot. *)

val relations : t -> Observed.relations option
(** The incrementally maintained observed/input relations of the current
    snapshot ([None] before the first append).  Forensic consumers reuse
    them to re-derive a rejected prefix's certificate and provenance
    without recomputing the closure from scratch. *)

val obs_pairs : t -> int
(** Pairs in the current observed order (0 on the empty prefix) — exposed
    so tests can pin that {!undo} restores state exactly. *)

type stats = {
  appends : int;
  fastpath_hits : int;
  delta_hits : int;
  kernel_hits : int;
}

val stats : t -> stats
(** Lifetime counters (not rolled back by {!undo}): total appends, how
    many skipped the reduction entirely on the delta-empty fast path, how
    many re-reduced only the new block, and how many were decided by the
    incremental order kernel. *)
