(** The level-by-level reduction of a composite execution (Defs. 14–16) and
    the Comp-C decision (Defs. 17–20, Theorem 1).

    Starting from the level-0 front, each step [i] tries to represent every
    level-i transaction by a {e calculation} — an isolated, contiguous
    execution of its operations that contradicts neither the observed order
    nor the input orders (Def. 14) — and then replaces those operations by
    the transaction (Def. 16).  The step is implemented by contraction:
    cluster the front by "belongs to the same level-i transaction" and test
    the quotient of [obs ∪ →] for acyclicity (a linear layout with every
    cluster contiguous exists iff the quotient is acyclic), testing
    intra-cluster constraints — including the transaction's own weak
    intra-transaction order — separately.  If every step succeeds and every
    front is conflict consistent, the history has a level-N front and is
    therefore Comp-C (Theorem 1); topologically sorting the final front
    yields the serial order of root transactions that Def. 20 demands. *)

open Repro_order
open Repro_model
open Ids

type failure =
  | Front_not_cc of { index : int; cycle : id list }
      (** The level-[index] front violates conflict consistency: the listed
          nodes form a cycle in [<_o ∪ →] (Def. 13 / Def. 16 step 6). *)
  | No_calculation of { level : int; cluster_cycle : id list }
      (** At step [level], no rearrangement of the previous front isolates
          every level-[level] transaction: the listed cluster representatives
          (transaction ids, or front nodes standing for themselves) form a
          cycle in the contracted constraint graph (Def. 16 step 1). *)
  | Intra_contradiction of { level : int; tx : id; cycle : id list }
      (** Transaction [tx]'s own operations cannot be laid out: its weak
          intra-transaction order contradicts the observed/input orders
          (Def. 14). *)

type step = {
  level : int;  (** The step index [i] — operations of level-[i] schedules were reduced. *)
  front : Front.t;  (** The level-[i] front that the step produced. *)
  layout : id list;
      (** A witness rearrangement of the level-[i-1] front (the [F**] of
          Def. 16 step 1): a linear order of its members in which every
          level-[i] transaction's operations are contiguous and all
          constraints hold. *)
}

type certificate = {
  initial : Front.t;  (** The level-0 front. *)
  steps : step list;  (** Successful steps, in order. *)
  outcome : (id list, failure) result;
      (** [Ok roots]: the serial order of root transactions witnessing
          Comp-C.  [Error f]: why the reduction got stuck. *)
}

val reduce :
  ?rel:Observed.relations ->
  ?spans:Repro_obs.Span.t ->
  ?metrics:Repro_obs.Metrics.t ->
  History.t ->
  certificate
(** Run the full reduction.  [rel] may be supplied to reuse a previously
    computed observed order.

    [spans] (default {!Repro_obs.Span.null}) receives the level-by-level
    profile as wall-clock spans in category [compc]: a zero-length
    [front_init] (labels [members], [order]), one [reduction_step] per
    attempted level (labels [level], [prev_front] and [front] member
    counts, [clusters] in the contracted graph, [outcome]) and, on
    rejection, a zero-length [failure] (label [kind]).  They join the
    collector's ambient trace, parented on its ambient span, when one is
    set, and otherwise a fresh trace of their own per call.
    [metrics] receives counters [compc.steps], [compc.accept],
    [compc.reject] and [compc.failure.<kind>] ([front_not_cc],
    [no_calculation], [intra_contradiction]) plus the wall-time histogram
    [compc.step_wall_s]; when [rel] is absent it is also passed to
    {!Observed.compute}. *)

val failure_kind : failure -> string
(** Stable classification tag: ["front_not_cc"], ["no_calculation"] or
    ["intra_contradiction"] — the suffix of the [compc.failure.*]
    counters. *)

val failure_cycle : failure -> id list
(** The witness cycle of any failure, uniformly. *)

val failure_level : failure -> int
(** The front index / step level the failure occurred at. *)

type edge =
  | Obs_edge of { via : id * id }
      (** The edge holds because [via] is in the observed order (for
          [No_calculation]/[Intra_contradiction] cycles, additionally a
          generalized conflict — only those pairs constrain the layout). *)
  | Inp_edge of { via : id * id }  (** [via] is an input-order pair. *)
  | Intra_edge of { via : id * id }
      (** [via] is in the transaction's weak intra order
          ([Intra_contradiction] cycles only). *)
  | Unexplained  (** Should not occur; a defensive fallback. *)

val cycle_edges :
  History.t -> Observed.relations -> failure -> ((id * id) * edge) list
(** The witness cycle as a closed edge list (consecutive members plus the
    closing edge), each edge classified against the relations the cycle was
    found in.  For [No_calculation] cluster cycles the witness pair [via]
    may connect {e operations} of the cluster representatives — the pair one
    level below that induced the quotient edge. *)

val is_correct : certificate -> bool

val pp_failure :
  ?rel:Observed.relations -> History.t -> Format.formatter -> failure -> unit
(** Render a failure.  Cycle members print as [label#id@schedule]
    ({!History.pp_node_sched}).  With [rel], each cycle edge is annotated
    with its origin ([-obs->], [-inp->], [-intra->] per {!cycle_edges}) and
    the cycle is closed back to its first member. *)
