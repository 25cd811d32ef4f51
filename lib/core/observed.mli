(** Observed order and generalized conflicts (Defs. 10–11).

    The observed order [<_o] is how the theory relates transactions that
    share no schedule: interference among low-level operations is propagated
    {e upwards} along the execution trees.  The generative rules (Def. 10),
    as implemented:

    + {e base}: between two operations of a common schedule, that schedule
      is authoritative - the observed order is its weak output order.
      Def. 10 rule 1 states this for leaves; the Figure-4 narrative ("the
      orders obtained in the previous step are forgotten" when the common
      schedule sees no conflict) extends it to internal operations.
      Well-behaved schedules emit {e minimal} outputs, so these pairs are
      exactly the conflicting pairs, the intra-transaction orders, the
      input-order obligations, and their transitive combinations;
    + {e rule 2}: a pair of conflicting operations of a common schedule
      climbs to the parents (the schedule's serialization decision);
    + {e rule 3}: a cross-schedule observed pair climbs to the parents
      unconditionally;
    + a climbed pair is {e kept} only when the parents do not themselves
      share a schedule: if they do, that schedule's own output order is
      already in the base and anything else is forgotten (this is what lets
      commutativity knowledge erase lower-level interference);
    + transitivity.

    Propagation and transitivity feed each other, so the relation is their
    least fixpoint over the base.  [parent] is Def. 5's: a root is its own
    parent, which lets pairs keep climbing on the non-root side.

    The generalized conflict relation CON (Def. 11) is derived: operations
    of a common schedule conflict iff that schedule's own predicate says so;
    operations of different schedules conflict iff they are observed-related
    (interaction at a lower level is pessimistically treated as a
    conflict). *)

open Repro_order
open Repro_model

type relations = {
  obs : Rel.t;  (** The observed order [<_o], transitively closed, over all node ids. *)
  inp : Rel.t;
      (** The union of all schedules' weak input orders [→] — the input-order
          component of every computational front (Def. 12). *)
  inp_strong : Rel.t;  (** The union of all strong input orders [⇒]. *)
}

val base : History.t -> Rel.t
(** The base pairs of the observed order (the Def. 10 rules applied to the
    weak output orders, before propagation and closure) — a pure function
    of the history, recomputed on demand rather than carried in
    {!relations}; useful for explanation output. *)

val compute : ?metrics:Repro_obs.Metrics.t -> History.t -> relations
(** Least fixpoint of the Def. 10 rules over the whole history.

    [metrics] (default {!Repro_obs.Metrics.null}) receives the
    relation-closure sizing of the run: the counter
    [compc.observed_computes] (full fixpoint runs — the engine's
    cache-sharing tests assert this stays at one per session), gauges
    [compc.obs_base_pairs] (base pairs before propagation),
    [compc.obs_pairs] (pairs after closure) and [compc.obs_rounds]
    (fixpoint rounds), plus the time histograms [compc.observed_wall_s]
    (monotonic wall clock) and [compc.observed_cpu_s] (process CPU clock —
    these diverge under the parallel batch drivers). *)

type delta = {
  d_obs : (Ids.id * Ids.id) list;
      (** Observed pairs in [obs] but not [prev.obs], in saturation
          (insertion) order. *)
  d_inp : (Ids.id * Ids.id) list;  (** New weak input pairs. *)
  d_inp_strong : (Ids.id * Ids.id) list;  (** New strong input pairs. *)
}
(** The exact growth of an {!extend} step — what the append added to each
    relation.  Callers that maintain their own incremental structures
    (the engine's order kernel) consume these instead of diffing the
    persistent relations, which would cost O(|closure|) per append. *)

type inc
(** Reusable dense scratch for {!extend}: a growable {!Repro_order.Bitrel}
    mirror of the observed closure and its inverse (dense only) plus a flat
    worklist, so the saturation loop probes and scans bits instead of
    allocating through the persistent maps.  One value per monitored
    session; it is rebuilt from [prev.obs] transparently after
    {!inc_invalidate}. *)

val inc_create : unit -> inc

val inc_invalidate : inc -> unit
(** Mark the mirror stale (the session rolled back or recomputed from
    scratch); the next {!extend} rebuilds it from its [prev] argument. *)

exception Below_floor of Ids.id * Ids.id
(** Raised by {!extend} on a windowed mirror when the saturation derives a
    pair {e targeting} a node below the floor: staying exact would require
    joining against the folded closure, which was released.  The engine
    treats this as a window breach and restores the full dense state. *)

val inc_rebase : inc -> floor:int -> unit
(** Move the mirror's floor (frontier truncation): nodes below [floor]
    are folded, the matrices index by [id - floor] and mirror only pairs
    with both endpoints at or above it, and raising the floor releases
    their backing arrays; the next {!extend} rebuilds them from the
    retained window's pairs (the {!window} of its [prev]).  Implies
    {!inc_invalidate}.  Pairs from a
    folded source into the window ("boundary pairs") are kept in the
    persistent relation only and joined against window successors on the
    fly; pairs targeting the folded region raise {!Below_floor} during
    {!extend}.  [~floor:0] restores the untruncated regime (the next
    sync rebuilds full-size).  Raises [Invalid_argument] on a negative
    floor. *)

val window : relations -> floor:int -> relations
(** The relations restricted to pairs with both endpoints at or above
    [floor]: what a frontier fold at [floor] keeps.  Pairs from a folded
    source into the window are dropped as well; windowed verdicts never
    read them, and keeping them would make the retained relation
    O(prefix x window). *)

val inc_floor : inc -> int

val inc_resident_words : inc -> int
(** Words held by the mirror's backing arrays and worklist (the mirror
    belongs to the session, not to the frame that [Obj.reachable_words]
    walks) — the memory-accounting probe for engine introspection. *)

val extend :
  ?metrics:Repro_obs.Metrics.t ->
  ?inc:inc ->
  prev:relations ->
  n_old:int ->
  History.t ->
  relations * delta
(** [extend ~prev ~n_old h] recomputes {!relations} for [h] given that [h]
    {e extends} the history [prev] was computed from — [n_old] nodes, same
    schedules, shared nodes keep identifiers/labels/parents, relations
    restricted to shared nodes only grow (the {!History.prefix_by_roots}
    chain shape).  The base rules only ever add pairs under extension and
    every new weak-output or input pair touches a node [>= n_old], so the
    delta base pairs are the rules replayed on the new weak-output pairs
    and the input orders grow by their new pairs, all three found by
    {!History.new_pairs} — through the converse index of an
    {!History.extend} chain in O(delta), else by a walk of every
    schedule.  The Def. 10 rules are monotone, so the closure is then
    grown from [prev.obs] by worklist saturation — joining each genuinely
    new pair against current successors/predecessors and climbing it —
    instead of restarting the dense fixpoint.  When no new base pair
    appeared the closed relation is reused as-is.  Equals {!compute} [h]
    (the [Final] variant) on the relations, and the returned {!delta} is
    exactly the pairwise difference; across a monitored run the total
    saturation work is proportional to the final closure size.

    [inc] supplies the reusable dense mirror; without it a private one is
    built for the call (correct, but the O(|obs|) rebuild recurs on every
    append).  [metrics] additionally receives the histograms
    [compc.obs_delta_base_pairs] and [compc.obs_saturated_pairs], and the
    counter [engine.delta] labeled [via=index] or [via=scan] with the
    path {!History.new_pairs} took, once per call. *)

(** {1 Ablation support}

    The published definitions admit more than one reading of how pulled-up
    pairs interact with a common schedule's commutativity knowledge; the
    reading implemented by {!compute} is the one under which the paper's
    Theorems 2-4 and figure narratives hold (validated empirically, see
    DESIGN.md section 4 and experiment E13).  The rejected readings remain
    available so the ablation experiment can quantify how each one breaks:

    - {!No_forgetting}: every observed pair climbs to the parents, even
      between commuting operations of a common schedule — low-level orders
      are never forgotten, so the criterion over-rejects (it collapses
      towards LLSR and disagrees with SCC on stacks);
    - {!Eager_forgetting}: climbed pairs landing between operations of a
      common schedule are dropped from the observed order entirely — fronts
      lose the pulled serialization orders, so the criterion over-accepts
      (it misses input-order violations that SCC catches). *)

type variant = Final | No_forgetting | Eager_forgetting

val compute_with :
  ?metrics:Repro_obs.Metrics.t -> variant -> History.t -> relations
(** [compute_with Final] is {!compute}. *)

val conflict : History.t -> relations -> Ids.id -> Ids.id -> bool
(** The generalized conflict relation CON of Def. 11 (symmetric). *)

val conflict_pairs : History.t -> relations -> Ids.Int_set.t -> (Ids.id * Ids.id) list
(** All generalized-conflict pairs within a node set, normalised with the
    smaller id first; used to display fronts. *)
