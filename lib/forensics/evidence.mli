(** Machine-readable evidence reports for Comp-C verdicts.

    An evidence value bundles everything forensic about one verdict: the
    witness cycle classified edge by edge ({!Repro_core.Reduction.cycle_edges}),
    the observed-order provenance of each cycle edge
    ({!Repro_core.Provenance}), the optional 1-minimal shrunken
    counterexample ({!Repro_core.Shrink}), and per-level front sizes.
    Three renderings share the one value: {!to_json} (schema ["evidence/1"],
    built on {!Repro_obs.Json}), {!dot} (the execution forest with the
    witness cycle highlighted), and {!pp} (the human transcript —
    {!Repro_core.Compc.explain} plus derivation chains and the shrink
    summary).

    Evidence is assembled from a live {!Repro_core.Engine} session
    ({!of_session}), reusing its cached closure, conflict memo, certificate
    and provenance.  Strictly cold-path machinery: real work happens only
    on a rejection, and nothing in the accept fast path depends on this
    library. *)

type t

val of_session :
  ?shrink:bool ->
  ?max_probes:int ->
  ?extra:(string * Repro_obs.Json.t) list ->
  Repro_core.Engine.t ->
  t
(** [of_session s] assembles the evidence for the session's current
    verdict, entirely from the session's caches ({!Repro_core.Engine.explain}).
    On a rejection it classifies the witness cycle's edges against the
    cached provenance; with [shrink] (default [false]) it additionally runs
    the delta-debugging shrinker ([max_probes] forwarded, default 2000),
    whose candidate restrictions inherit the session history's conflict
    memo.  [extra] fields are appended verbatim to the JSON object — the
    monitor mode uses this to record the violating prefix.  On an accepted
    verdict the evidence is just the verdict and the serial order.  Raises
    [Invalid_argument] on an empty session. *)

val to_json : t -> Repro_obs.Json.t
(** Schema ["evidence/1"]: verdict, history sizes, per-level fronts, and —
    on rejection — the failure (kind, level, cycle members with labels and
    owning schedules, edges with witness pairs and full provenance
    derivation chains), a provenance cross-check, and the shrunken history
    in histlang syntax when shrinking ran. *)

val dot : t -> string
(** The execution forest with the observed order overlaid; on a rejection
    the witness cycle's nodes and edges are highlighted and members are
    annotated with their cycle position. *)

val pp : Format.formatter -> t -> unit
(** Full human transcript: {!Repro_core.Compc.explain}, then per-edge
    provenance derivation chains and the shrink summary (with the shrunken
    history printed in histlang syntax). *)
