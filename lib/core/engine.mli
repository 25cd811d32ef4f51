(** The certification engine: one analysis session shared by every
    consumer of a Comp-C verdict.

    Four consumers need the same per-history analysis state — the batch
    checker ({!Compc}), the streaming monitor ({!extend}), the forensic
    layer (provenance, evidence, shrinking) and the definitional
    cross-check ({!Equivalence}) — and before this module each rebuilt it
    from scratch: a fresh observed-order closure, a fresh conflict memo, a
    fresh reduction per query.  A {e session} owns that state once:

    - the current history handle and its lazily filled conflict memo
      (carried across extensions by {!History.extend_cache} and onto
      shrink candidates by {!History.View});
    - the observed-order closure ({!Observed.compute} on
      first load, {!Observed.extend} afterwards);
    - the reduction certificate, cached and — on the incremental paths,
      which prove the verdict without a transcript — derived lazily over
      the warm relations;
    - the provenance index, built on first {!explain};
    - a single {!Repro_obs.Sink.t} carrying the metrics registry, flight
      recorder and span collector, replacing the scattered optional
      telemetry arguments of the pre-engine layers.

    A session that services {!analyze}, then {!explain}, then a
    monitor-style {!extend} performs exactly one closure computation and
    one conflict-memo build — pinned by the telemetry tests against the
    [compc.observed_computes] counter and {!Repro_model.Conflict.evals}.

    {b Extension contract.}  Each history passed to {!extend} (or to
    {!analyze} on a non-empty session) must {e extend} the session's
    current one: same schedules in the same order; shared nodes keep their
    identifiers, labels, parents and children; new nodes have strictly
    larger identifiers; relations and logs restricted to shared nodes are
    unchanged.  Production callers build their chains with one of two
    builders: {!History.prefix_by_roots} (file-mode [compcheck --monitor])
    and {!History.extend}, through [Syntax.Session.feed] ([compserve]
    appends and [compcheck --monitor -]), which refuses a chunk that is
    not an extension.  The simulator's deterministic assembly produces
    the same shape.  The cheap violations (shrinking, schedule mismatch)
    raise [Invalid_argument]; the rest is the caller's responsibility.

    {b Verdict equivalence.}  After any sequence of {!extend}s the
    session's verdict equals {!Compc.is_correct} on its current history —
    pinned by the qcheck properties in [test/test_monitor.ml] and
    [test/test_engine.ml].  The reported witness may differ in
    inessentials (the serial order places delta roots last; a rejection
    may cite a different — but equally real — cycle).

    Sessions are single-domain, like the history memos they warm. *)

open Repro_order
open Repro_model
open Ids

type t
(** An analysis session. *)

type verdict =
  | Accepted of id list
      (** Comp-C, with a witness serial order of the root transactions. *)
  | Rejected of Reduction.failure

val create : ?obs:Repro_obs.Sink.t -> ?window:int -> unit -> t
(** A session over the empty prefix (vacuously accepted).

    [window] (default: none) arms auto-truncation.  Before each
    monitored append of an accepted session, once the window — the nodes
    above the floor, or after a restore the nodes that arrived since it —
    holds [w] nodes ([w] is the effective watermark, initially [window]),
    the session folds its prefix back to the largest {e legal} point at
    or below [n - w/2] ([n] the node count), so at least [w/2] of the
    newest nodes stay dense (see {!truncate} for legality).  When open
    roots that keep taking operations rule out every such point, it folds
    at the smallest legal point above [n - w/2], keeping what tail it can
    — at worst none, [n] being always legal.  The retained tail keeps appends under the newest roots
    decidable over the window.  Each {e breach restore} (an append that
    reaches into the folded prefix or shifts a level, see {!truncate})
    doubles [w], capped at [8 * window], so a stream that keeps reaching
    back widens its own tail; forensic restores leave [w] alone.

    Resident dense memory is O(window) from a fold to the next restore.
    A restore re-materializes the whole prefix's dense state, and the
    session keeps it until [w] more nodes have arrived, so from a restore
    to the next fold it is O(prefix); for the same reason a stream
    restores at most once per [w] new nodes.
    Raises [Invalid_argument] when [window <= 0].

    [obs] (default
    {!Repro_obs.Sink.null}) receives, through its metrics registry, the
    checker metrics of the underlying {!Observed}/{!Reduction} calls plus
    [compc.checks]/[compc.check_wall_s]/[compc.check_cpu_s] per {!analyze}
    and [monitor.appends], [monitor.fastpath_hits], [monitor.delta_hits]
    [monitor.kernel_hits] and [monitor.append_wall_s] per {!extend}.  Its
    span collector receives the [compc] reduction profile
    ({!Reduction.reduce}) of the reduction an {!analyze} runs or forces,
    never of a monitor {!extend} or a forensic {!certificate} or
    {!explain}; inside a request (an ambient trace set on the collector)
    each advance also records an [engine.append] or [engine.analyze]
    span.

    {!extend} additionally reports the labeled series
    [monitor.append{path="initial|fast|delta|kernel|full"}] and
    [monitor.append_wall_s_by_path{path=...}], and refreshes the live
    [engine.*] state gauges (node count, closure pair counts, conflict-memo
    fill) after every append.  The sink's flight recorder receives one
    [engine]-category event per advance — name [append] (monitor) or
    [analyze] (batch), labels [path]/[nodes]/[verdict]/[wall_us], severity
    [Error] on a rejection and [Warn] on a monitor append that fell back to
    a full reduction — whatever the metrics registry's state, so a bounded
    operational prehistory is always available on a violation. *)

val of_history : ?obs:Repro_obs.Sink.t -> History.t -> t
(** [of_history h] is a fresh session advanced to [h] by {!analyze} — the
    one-shot batch entry point. *)

(** {1 Entry points} *)

val analyze : t -> History.t -> verdict
(** Batch verdict: advance the session to [h] and force the reduction
    {!certificate}.  On an empty session this is the full pipeline
    (closure fixpoint + reduction); on a non-empty one [h] must extend the
    current history (see the contract above) and the incremental machinery
    of {!extend} is reused.  Reports the [compc.*] check metrics. *)

val extend : t -> History.t -> verdict
(** Monitor append: advance the session to [h] — which must extend the
    current history — for the cost of the delta.  Relative to the previous
    snapshot the engine (in order): carries the conflict memo by blit and
    grows the closure by worklist saturation; skips the reduction entirely
    when the delta provably cannot change the verdict; re-reduces only the
    new block when every added pair points into it; decides level-stable
    appends whose delta lands inside the old block — operations appended
    to old transactions, edges between old nodes — with the session's
    incremental order kernel (Pearce–Kelly topological-order/SCC graphs
    per front level and reduction step, fed only the edge delta); and
    only when schedule levels shift falls back to a full reduction over
    the already-extended relations.  The verdict equals {!analyze} on the
    same history (see {e Verdict equivalence} above).  The previous state
    is retained for one {!undo}.  Reports the [monitor.*] metrics. *)

val undo : t -> unit
(** Roll back the last {!extend}/{!analyze} — the certify-reject path of
    the simulator.  Undo depth is one: raises [Invalid_argument] when no
    snapshot is held (before any advance, or twice in a row).  A
    truncation boundary is a hard wall: immediately after {!truncate}
    (which releases the pre-fold state, snapshot included) undo raises
    [Invalid_argument] with a distinct "cannot roll back across a
    truncation boundary" message.  Appends made {e after} a fold undo
    normally, within the window. *)

(** {1 Frontier truncation}

    The level-by-level reduction only ever consults the open frontier of
    a certified prefix: once a prefix is accepted and its roots closed,
    its interior contributes nothing to any future verdict decided over
    forward, window-shaped appends.  {!truncate} exploits this by folding
    the certified prefix into an immutable {!summary} and releasing the
    dense per-node state — closure pairs, conflict-memo planes
    ({!History.memo_release}), the dense mirror's bit matrices, the
    order kernel, the provenance index — so a monitored session's memory
    is O(active window), not O(prefix), from a fold to the next restore.

    A fold point [p] is {e legal} when no node at or above [p] has an
    ancestor below it and no observed or input pair runs from a node at
    or above [p] to one below it.  Then every edge between the folded
    region and the window points into the window, so no cycle of any
    front constraint graph, feasibility graph or cluster quotient can
    cross the floor.  The fold keeps only the pairs with both endpoints
    at or above [p].

    {b Invariants.}  The history handle and the carried verdict (with its
    full serial witness) survive the fold; verdicts after a fold equal
    the untruncated session's (pinned by qcheck).  Later appends are
    decided over the window — forward ones by the delta path, the rest
    by the order kernel rebuilt over the window — as long as the window
    stays closed under them.  An append that breaks that — an observed
    or input pair landing in the folded prefix ([below_floor]), an
    operation joining a folded transaction ([folded_tx]) or a schedule
    level shift ([level_shift]) — triggers an automatic {e restore}: the
    dense state is recomputed from the (complete) history, the floor
    drops to 0, and the append is re-decided exactly.  The forensic entry
    points ({!certificate}, {!provenance}, {!explain}) restore implicitly
    ([forensic]).  Restores are counted per cause
    ({!restores_by_cause}, the [engine.restores{cause=...}] counter). *)

type summary = {
  s_nodes : int;  (** the fold point: every node below it is folded *)
  s_roots : int;  (** root transactions in the folded prefix *)
  s_serial : id list;
      (** the folded roots in certified order: a prefix of every later
          witness, since every root-level edge between a folded and a
          retained root points to the retained one *)
  s_front_sizes : int array;
      (** per-level computational-front cardinality of the folded
          nodes *)
  s_boundary_obs : (id * id) list;
      (** observed pairs crossing the {e previous} fold point into the
          nodes this fold absorbed — the seam between the previously
          folded region and this fold; empty on a session's first fold *)
}
(** The compact record of a folded prefix, replaced on each fold. *)

val truncate : t -> unit
(** Fold the whole current certified prefix: the fold point is the node
    count, which is always legal.  (Auto-truncation, armed by [create
    ?window], folds through the same code to a point that retains a
    tail.)  No-op on the empty session and at an unchanged fold point
    ([truncate; truncate] ≡ [truncate]); raises [Invalid_argument] when
    the current verdict is a rejection (its witness lives in the dense
    state a fold would release).  Clears the undo snapshot. *)

val summary : t -> summary option
(** The record of the most recent fold; [None] before any fold and after
    a restore. *)

val floor : t -> int
(** Nodes below this identifier are folded; 0 when untruncated. *)

(** {1 The session's state} *)

val verdict : t -> verdict option
(** Current verdict; [None] on the empty session. *)

val accepted : t -> bool
(** Current history is Comp-C ([true] on the empty session). *)

val history : t -> History.t option

val relations : t -> Observed.relations option
(** The session's observed/input relations — computed once, extended
    incrementally, shared by every consumer. *)

val obs_pairs : t -> int
(** Pairs in the current observed order (0 on the empty session) — exposed
    so tests can pin that {!undo} restores state exactly. *)

val certificate : t -> Reduction.certificate
(** The reduction certificate of the current history.  Cached: the batch
    paths store it as they decide; the incremental paths derive it on first
    demand over the session's warm relations (one {!Reduction.reduce
    ~rel}, never a closure recompute).  Raises [Invalid_argument] on the
    empty session. *)

val provenance : t -> Provenance.t
(** The observed-order provenance index of the current history, built on
    first demand from the session's cached relations and cached until the
    session advances.  Raises [Invalid_argument] on the empty session. *)

(** {1 Forensics} *)

type explanation = {
  certificate : Reduction.certificate;
  provenance : Provenance.t option;
      (** [Some] exactly on a rejection — nothing on the accept path pays
          for the replay. *)
  cycle_edges : ((id * id) * Reduction.edge) list;
      (** The classified witness cycle; [[]] on acceptance. *)
}

val explain : t -> explanation
(** Everything forensic about the current verdict, from the session's
    caches: the certificate, and — on a rejection — the provenance index
    and the witness cycle classified edge by edge.  Calling [explain]
    after {!analyze} recomputes neither the closure nor the memo.  Raises
    [Invalid_argument] on the empty session. *)

val shrink : ?max_probes:int -> t -> Shrink.result option
(** Delta-debug the current history to a 1-minimal sub-history with the
    same failure kind ([None] when accepted); see {!Shrink.shrink}.
    Candidate restrictions inherit the session history's conflict memo
    through {!History.View}, so probing never re-interprets a label pair
    the session already decided. *)

(** {1 Telemetry} *)

type stats = {
  appends : int;
  fastpath_hits : int;
  delta_hits : int;
  kernel_hits : int;
}

val stats : t -> stats
(** Lifetime counters (not rolled back by {!undo}): total advances, how
    many skipped the reduction entirely on the delta-empty fast path, how
    many re-reduced only the new block, and how many were decided by the
    incremental order kernel. *)

val truncations : t -> int
(** Lifetime fold count. *)

val restores : t -> int
(** Lifetime count of dense-state restores (window breaches and forensic
    demands against a truncated frame). *)

val restores_by_cause : t -> (string * int) list
(** {!restores} split by cause, in the fixed order [below_floor],
    [folded_tx], [level_shift], [forensic] (see {!truncate}). *)

val resident_estimate_words : t -> int
(** O(1) counter-based estimate of the session's resident {e dense
    certification} state, in words: closure pairs, conflict-memo planes,
    the mirror's bit matrices (session state, outside the frame that
    [Obj.reachable_words] walks), kernel adjacency and the provenance
    index.  Excludes the immutable history array.  This is the quantity
    frontier truncation bounds, and the series the memory-flatness CI
    gates watch. *)

val introspect : ?deep:bool -> t -> Repro_obs.Json.t
(** The session's state report ([engine-stats/1]): what this session is
    holding in memory and what it cost to get here — history sizing
    (nodes, roots, schedules, order), closure pair counts (observed,
    input, base), conflict-memo fill (known pairs / total pair
    space), provenance-index size if built, whether the reduction
    certificate is materialized, the lifetime {!stats} counters,
    [Obj.reachable_words] over the session's current frame (history +
    relations + caches), and [Gc.quick_stat] allocation deltas since the
    session was created.  On the empty session the [history] field is
    null and only the session/gc sections are reported.  The [session]
    section also carries the truncation state (floor, fold and restore
    counts, restores by cause, configured window) and a [summary] field
    renders the current {!summary}.

    [deep] (default [true]) walks the reachable heap with
    [Obj.reachable_words] — O(prefix), so callers poll it sparingly;
    [~deep:false] reports only the O(1) {!resident_estimate_words} in the
    [memory] section (the monitor CLI's polling path). *)
