(** Composite correctness (Comp-C, Def. 20) — the top-level checker API.

    A composite execution is Comp-C iff it is level-N-contained in a serial
    front, which by Theorem 1 holds iff the level-by-level reduction of
    {!Reduction} completes.  {!check} runs the whole pipeline — observed
    order, fronts, reduction — and returns a verdict carrying every
    intermediate object, so callers can print proofs and counterexamples.

    {[
      let verdict = Compc.check history in
      if Compc.is_correct_verdict verdict then
        Fmt.pr "serializable as %a@." Fmt.(list int) (Compc.serial_order verdict)
      else Compc.explain Fmt.stdout verdict
    ]} *)

open Repro_model
open Repro_order.Ids

type verdict = {
  history : History.t;
  relations : Observed.relations;
  certificate : Reduction.certificate;
}

val of_session : Engine.t -> verdict
(** The verdict record of a session's current history, read from its
    caches: no closure is recomputed, and a session that decided
    incrementally derives its certificate once over its warm relations
    ({!Engine.certificate}, which first restores a truncated session).
    Raises [Invalid_argument] on the empty session. *)

val check : ?metrics:Repro_obs.Metrics.t -> History.t -> verdict
(** Decide Comp-C for the history.  [metrics] (default
    {!Repro_obs.Metrics.null}) is threaded through {!Observed.compute} and
    {!Reduction.reduce} — see those for the metric vocabulary; {!check}
    itself adds the counter [compc.checks] and the end-to-end wall-time
    histogram [compc.check_wall_s].  For the reduction's span profile,
    analyze through {!Engine.of_history} with a sink carrying a span
    collector. *)

val is_correct : ?metrics:Repro_obs.Metrics.t -> History.t -> bool
(** [is_correct h] is [Reduction.is_correct (check h).certificate]. *)

val is_correct_verdict : verdict -> bool

val serial_order : verdict -> id list
(** The witness serial order of root transactions; raises [Invalid_argument]
    on an incorrect execution. *)

val failure : verdict -> Reduction.failure option

val explain : Format.formatter -> verdict -> unit
(** Human-readable account of the reduction: every front with its observed
    order, input orders and generalized conflicts, every step's witness
    layout, and the verdict (with the failing cycle if incorrect). *)
