(** Composite executions.

    A {e composite system} (Def. 4) is a set of schedules that invoke one
    another's services without recursion; its dynamic behaviour is a
    {e computational forest}: every root transaction spawns a tree whose
    internal nodes are subtransactions (operations of one schedule,
    transactions of another) and whose leaves are atomic operations.

    A value of type {!t} packages one complete composite execution:

    - the forest of {e nodes} (roots, internal transactions, leaves), each
      carrying a {!Label.t} and its intra-transaction weak and strong orders
      (Def. 2);
    - the set of {e schedules}, each with its conflict specification, its
      weak/strong {e input} orders over its transactions and weak/strong
      {e output} orders over its operations (Def. 3), and optionally the
      total execution log it produced.

    Histories are immutable; construct them with {!Builder}, and grow one
    by a delta with {!extend}.  Construction
    performs the {e order completion} that Def. 3 requires of any well-formed
    schedule (output orders extend intra-transaction orders; strong input
    orders expand to strong output orders over all operation pairs; orders
    are transitively closed) and derives the input orders of invoked
    schedules from their clients' output orders (Def. 4.7).  Full validation
    against Defs. 3–4 is separate: see {!Validate}. *)

open Repro_order
open Ids

type sched_id = int

type node = private {
  id : id;
  label : Label.t;
  parent : id option;  (** [None] exactly for root transactions. *)
  children : id list;  (** In creation order; empty for leaves. *)
  sched : sched_id option;
      (** Schedule this node is a {e transaction} of; [None] exactly for
          leaves.  Roots and internal nodes always belong to a schedule. *)
  intra_weak : Rel.t;  (** Weak intra-transaction order over [children]. *)
  intra_strong : Rel.t;  (** Strong intra-transaction order over [children]. *)
}

type schedule = private {
  sid : sched_id;
  sname : string;
  conflict : Conflict.spec;
  transactions : Int_set.t;
  weak_in : Rel.t;  (** [→]: weak input order over [transactions]. *)
  strong_in : Rel.t;  (** [⇒]: strong input order over [transactions]. *)
  weak_out : Rel.t;  (** [≺]: weak output order over the operations. *)
  strong_out : Rel.t;  (** [≪]: strong output order over the operations. *)
  log : id list;
      (** Total execution log of the schedule's operations, oldest first;
          [[]] when the history was not produced by an execution. *)
}

type t

val empty : unit -> t
(** No schedules, no nodes: the start of an {!extend} chain. *)

(** {1 Accessors} *)

val node : t -> id -> node
val schedule : t -> sched_id -> schedule
val n_nodes : t -> int
val n_schedules : t -> int
val schedules : t -> schedule list
val label : t -> id -> Label.t

val parent : t -> id -> id option
(** Structural parent; [None] for roots. *)

val parent_tx : t -> id -> id
(** Def. 5: the parent of a non-root node, and the node itself for roots. *)

val children : t -> id -> id list
val is_leaf : t -> id -> bool
val is_root : t -> id -> bool

val roots : t -> id list
val leaves : t -> id list
val internal_nodes : t -> id list
(** Nodes that are transactions of some schedule and operations of another. *)

val sched_of_tx : t -> id -> sched_id option
(** The schedule a node is a transaction of ([None] for leaves). *)

val sched_of_op : t -> id -> sched_id option
(** The schedule a node is an operation of — the schedule of its parent
    transaction ([None] for roots). *)

val common_op_schedule : t -> id -> id -> sched_id option
(** The schedule of which both nodes are operations, if any.  Central to
    Defs. 10–11: observed order stops propagating, and conflicts are decided
    locally, at a common schedule. *)

val common_op_schedule_id : t -> id -> id -> sched_id
(** Allocation-free variant of {!common_op_schedule} for hot paths: the
    common schedule, or [-1] when there is none. *)

val ops_of_schedule : t -> sched_id -> id list
(** All operations of a schedule (children of its transactions). *)

type pair_source =
  | Index  (** Answered through the converse index of an {!extend} chain. *)
  | Scan  (** Answered by walking every schedule's operations and transactions. *)

val new_pairs :
  t ->
  n_old:int ->
  weak_out:(sched_id -> id -> id -> unit) ->
  weak_in:(sched_id -> id -> id -> unit) ->
  strong_in:(sched_id -> id -> id -> unit) ->
  pair_source
(** [new_pairs h ~n_old ~weak_out ~weak_in ~strong_in] calls [weak_out s a
    b] once for every pair [(a, b)] of schedule [s]'s closed weak output
    order with [a] or [b] at or above [n_old], and [weak_in] and
    [strong_in] likewise for its weak and strong input orders, in no
    particular order.  When [h] extends a history of [n_old] nodes (the
    contract of {!Repro_core.Engine.extend}), these are exactly the pairs
    the extension added.  The answer says which path produced them: a
    history built by {!extend} carries the converse of every closed order,
    and then each new node contributes its successors and its
    predecessors below [n_old], O(new nodes × log n + new pairs)
    ({!Index}); a {!Builder.seal} history has no converse index and every
    schedule's operations and transactions are walked, O(nodes) with no
    allocation per quiescent node ({!Scan}). *)

val conflicts : t -> sched_id -> id -> id -> bool
(** [conflicts h s a b]: does schedule [s]'s own conflict predicate [CON_S]
    relate operations [a] and [b]?  Only meaningful when both are operations
    of [s] and belong to different transactions; returns [false] for
    operations of the same transaction.

    Results are memoized per history in a lazily filled symmetric bitmatrix
    (one bit pair per unordered operation pair of [s]), filled by probing
    the schedule's {e compiled} spec ({!Conflict.compile}, built once per
    history alongside the memo), so repeated probes — the observed-order
    fixpoint revisits every pair each round — interpret the labels at most
    once and never re-scan a spec's lists.  The cache is invisible
    semantically but makes histories unsafe to probe from several domains
    at once; batch checkers must give each domain its own history. *)

val conflicts_uncached : t -> sched_id -> id -> id -> bool
(** The direct, non-memoizing evaluation path through the {e interpreted}
    {!Conflict.eval}.  Slow; exists as the reference implementation for
    equivalence tests (which thereby also cross-check the compiled form
    against the interpreter). *)

val compiled_spec : t -> sched_id -> Conflict.compiled
(** The schedule's conflict spec in compiled form, shared with the conflict
    memo (compiled once per history, on first use).  The lock tables and
    the workload generators probe this instead of re-interpreting the
    spec. *)

val extend_cache : from:t -> t -> unit
(** [extend_cache ~from h] seeds [h]'s conflict memo with every pair
    already decided in [from], assuming [h] {e extends} [from]: same
    schedules, shared nodes keep their identifiers and labels, new
    operations get strictly larger identifiers (the shape produced by
    {!prefix_by_roots} chains and by the simulator's deterministic history
    assembly).  Because each schedule's triangular bitmatrix is indexed by
    per-schedule operation rank, the old matrix is a bit-prefix of the new
    one and transfers by blit.  No-op when [from] has no cache yet or [h]
    already has one; raises [Invalid_argument] when [h] has fewer nodes,
    fewer operations in some schedule, or a different schedule count.
    Semantically invisible — only the memo warmth changes. *)

val memo_stats : t -> int * int
(** [(known, total)]: how many unordered same-schedule operation pairs the
    conflict memo has decided, out of the total pair space (one slot per
    pair, summed over schedules).  [(0, total)] before any probe.  Pure
    introspection for the engine's state report — reads the memo, never
    fills it.  O(schedules) once the memo exists: [known] sums per-schedule
    counters that {!conflicts} keeps as it decides pairs ({!memo_release}
    zeroes them, {!extend_cache} carries them), and [total] comes from the
    memo's operation counts. *)

val memo_popcount : t -> int
(** The decided-pair count read the slow way, by popcount of the memo's
    tables: the O(pairs) reference {!memo_stats}'s counters are tested
    against.  On the newest history of an extension chain the two agree;
    an older history shares its tables with its extension and may count
    the extension's bits here. *)

val memo_release : t -> unit
(** Release the conflict memo's storage for every operation currently in
    the history: the triangular planes are dropped and those pairs
    evaluate uncached from then on, while operations appended {e after}
    the release memoize again in fresh tables covering only the new
    window.  Semantically invisible (the memo caches a pure predicate);
    this is the engine's frontier-truncation hook, where the released
    pairs belong to a folded prefix and are re-probed at most on its
    boundary.  Idempotent, and {!extend_cache} carries the release
    forward along an extension chain. *)

val memo_bytes : t -> int
(** Bytes currently held by the allocated memo planes — the storage-side
    counterpart of {!memo_stats}, for cheap resident-memory estimates. *)

val descendants : t -> id -> Int_set.t
(** Proper descendants ([Act] of Def. 4.6, transitively). *)

val composite_transaction : t -> id -> Int_set.t
(** Def. 6: the root together with all its descendants.  Raises
    [Invalid_argument] if the node is not a root. *)

(** {1 Structure (Defs. 7–9)} *)

val invocation_graph : t -> Rel.t
(** Edge [s -> s'] iff schedule [s] invokes [s'] (some operation of [s] is a
    transaction of [s']). *)

val level : t -> sched_id -> int
(** Def. 9: 1 + length of the longest invocation path starting at the
    schedule.  Leaf schedules have level 1. *)

val order : t -> int
(** The order N of the composite system: the highest schedule level. *)

val level_of_node : t -> id -> int
(** Level of the schedule a node is a transaction of; 0 for leaves. *)

val schedules_at_level : t -> int -> sched_id list

val prefix_by_roots : t -> int -> t
(** [prefix_by_roots h k] is the sub-execution spanned by the first [k]
    root transactions of [h] (ascending identifier): their subtrees, all
    schedules (possibly left empty), and every explicit order and log
    entry restricted to the kept nodes, re-sealed.  Nodes are rebuilt in
    root-major depth-first order, so the prefixes of one history form an
    extension chain — [prefix_by_roots h k] and [prefix_by_roots h (k+1)]
    agree on the identifiers and labels of shared nodes, which is the
    contract {!extend_cache} and the incremental monitor's delta
    computation rely on.  [prefix_by_roots h (List.length (roots h))]
    equals [h] up to that relabelling.  Raises [Invalid_argument] when [k]
    is outside [0..#roots]. *)

(** {1 Restricted views} *)

(** Read-only restrictions of a history to a downward-closed node subset.

    A view is cheap — two arrays, no history copy — and is the engine's
    window onto candidate sub-histories: the shrinker probes restrictions
    of one base history over and over, and materializing each one through
    {!Builder} used to discard everything the base had already paid for.
    {!View.to_history} still re-seals (the model's order-completion rules
    must run on the restriction), but it {e seeds the conflict memo} of the
    materialized history from the base's: surviving operation pairs keep
    their decided conflict bits, so the label interpreter never re-runs on
    pairs the base session already probed. *)
module View : sig
  type history := t

  type t
  (** A restriction of one base history to a kept node subset. *)

  val make : history -> keep:Ids.Int_set.t -> t
  (** [make h ~keep] restricts [h] to [keep], closed downward: a node
      survives iff it and all its ancestors are in [keep] (dropping a node
      drops its whole subtree).  O(nodes); nothing is copied. *)

  val base : t -> history
  val n_nodes : t -> int
  (** Surviving nodes. *)

  val mem : t -> id -> bool
  (** Does the original node survive the restriction? *)

  val new_id : t -> id -> id
  (** The surviving node's identifier in {!to_history}'s output — dense,
      in original id order — or [-1] when dropped. *)

  val to_history : t -> history
  (** Materialize the restriction as a full history: surviving nodes are
      renumbered densely in original id order, schedules all survive
      (possibly emptied), [Explicit] conflict pairs are remapped, intra and
      root input orders are restricted, and a schedule with a log gets the
      restricted log with re-derived minimal outputs (a schedule described
      by explicit output orders keeps their restriction).  The base
      history's conflict memo is transferred onto the result: pairs of
      surviving operations keep their decided bits, so probing the
      materialized restriction re-interprets no label the base already
      decided. *)
end

val pp : Format.formatter -> t -> unit
(** Multi-line human-readable rendering of the whole history. *)

val pp_node : t -> Format.formatter -> id -> unit
(** Renders a node as [name(args)#id]. *)

val pp_node_sched : t -> Format.formatter -> id -> unit
(** Renders a node as [name(args)#id@schedule], where the schedule is the
    one the node is an {e operation} of (for roots: the schedule they are a
    transaction of).  The forensic rendering — a bare id means nothing once
    a cycle spans several components. *)

(** {1 Construction} *)

module Builder : sig
  type history := t

  type t
  (** A mutable history under construction. *)

  val create : unit -> t

  val schedule : t -> ?conflict:Conflict.spec -> string -> sched_id
  (** Declare a schedule.  Default conflict specification is {!Conflict.Rw}. *)

  val root : t -> sched:sched_id -> Label.t -> id
  (** Declare a root transaction belonging to [sched]. *)

  val tx : t -> parent:id -> sched:sched_id -> Label.t -> id
  (** Declare a subtransaction: an operation of [parent]'s schedule and a
      transaction of [sched]. *)

  val leaf : t -> parent:id -> Label.t -> id
  (** Declare a leaf operation of [parent]. *)

  val weak_out : t -> a:id -> b:id -> unit
  (** Record that the schedule of which [a] and [b] are operations weakly
      ordered [a] before [b].  Both must share a parent schedule. *)

  val strong_out : t -> a:id -> b:id -> unit
  (** Strong output order; implies the weak output pair. *)

  val intra_weak : t -> a:id -> b:id -> unit
  (** Weak intra-transaction order between two children of one node. *)

  val intra_strong : t -> a:id -> b:id -> unit

  val input_weak : t -> a:id -> b:id -> unit
  (** Client-imposed weak input order between two root transactions of the
      same schedule.  Input orders of non-root transactions are derived from
      their clients' output orders (Def. 4.7) and cannot be set directly. *)

  val input_strong : t -> a:id -> b:id -> unit

  val log : t -> sched:sched_id -> id list -> unit
  (** Record the total execution log of a schedule (all its operations,
      oldest first).  At {!seal} time, any schedule with a log and no
      explicit weak output order gets the {e minimal} valid output derived
      from it: the log order restricted to conflicting operation pairs,
      completed as Def. 3 requires. *)

  val seal : t -> history
  (** Freeze the history: derive outputs from logs, complete orders per
      Def. 3, derive input orders per Def. 4.7, transitively close all
      orders.  Raises [Invalid_argument] on structurally malformed input
      (unknown ids, an operation pair of different schedules given to
      {!weak_out}, a recursive invocation graph, a log that is not a
      permutation of the schedule's operations). *)
end

val extend : t -> (Builder.t -> unit) -> t
(** [extend h declare] is [h] grown by what [declare] declares on a builder
    opened on [h]: new schedules, new nodes (identifiers from [n_nodes h]
    up, children of old or new transactions), and new pairs and logs,
    through the ordinary {!Builder} calls with old and new identifiers
    alike.  Sealing completes only the delta, highest level first, with
    the rules of {!Builder.seal}: each new pair is closed against the
    stored closed order, new input pairs and old transactions that gained
    operations expand into output pairs, new output pairs are pushed down
    to invoked schedules, and log pairs are derived for new log entries
    only.  The result equals {!Builder.seal} of all the declarations at
    once.

    The delta must {e extend} [h] — the contract of
    {!Repro_core.Engine.extend}.  It raises [Invalid_argument] with a
    message starting [not an extension:] when completion would add a pair
    between two nodes of [h] to any order, when a log would reorder old
    operations, or when output pairs are declared for a schedule whose
    output order [h] derived from its log.  Old nodes keep their label,
    parent and schedule by construction.  Any other builder error raises
    as {!Builder.seal} does.  On any exception [h] is unchanged; on
    success it stays valid and shares its relations with the result.

    Closing a pair needs predecessors, so an extension chain keeps the
    converse of every closed order beside it: built from [h] on its first
    extension, then grown with the chain.  Histories from
    {!Builder.seal} never build it. *)
