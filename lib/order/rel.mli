(** Finite binary relations over integer node identifiers.

    This module implements the relation algebra on which the whole composite
    correctness theory rests: the weak and strong input/output orders of
    schedules, the observed order [<_o], the generalized conflict relation
    CON, and the combined constraint graphs of computational fronts are all
    values of type {!t}.

    The representation is persistent (balanced maps of sets), so fronts of a
    reduction can share structure between levels.  A relation only knows the
    nodes that appear in at least one pair; algorithms that need a universe
    take an explicit [nodes] argument. *)

open Ids

type t
(** A finite binary relation on {!Ids.id}. *)

val empty : t

val is_empty : t -> bool

val add : id -> id -> t -> t
(** [add a b r] is [r] with the pair [(a, b)] added.  Self-pairs are allowed
    by the representation; validity checks reject them where the theory
    requires irreflexivity. *)

val remove : id -> id -> t -> t

val mem : id -> id -> t -> bool

val of_list : (id * id) list -> t

val to_list : t -> (id * id) list
(** Pairs in ascending lexicographic order. *)

val cardinal : t -> int
(** Number of pairs. *)

val union : t -> t -> t

val inter : t -> t -> t

val diff : t -> t -> t

val subset : t -> t -> bool
(** [subset r s] is [true] iff every pair of [r] is in [s]. *)

val equal : t -> t -> bool

val succs : t -> id -> Int_set.t
(** Direct successors of a node (empty if unknown). *)

val preds : t -> id -> Int_set.t
(** Direct predecessors of a node.  O(size of relation); callers probing
    more than one node should use {!inverse} once instead. *)

val inverse : t -> t
(** The converse relation, computed in one pass: [mem b a (inverse r)] iff
    [mem a b r], and [succs (inverse r) b] is [preds r b]. *)

val fold : (id -> id -> 'a -> 'a) -> t -> 'a -> 'a

val iter : (id -> id -> unit) -> t -> unit

val filter : (id -> id -> bool) -> t -> t

val restrict : keep:(id -> bool) -> t -> t
(** Sub-relation induced by the nodes satisfying [keep]: a pair survives iff
    both endpoints do. *)

val map_nodes : (id -> id) -> t -> t
(** Rename nodes; pairs that collapse to self-pairs are dropped.  Used to
    project a relation on operations to a relation on their parents during
    reduction. *)

val nodes : t -> Int_set.t
(** All nodes appearing in at least one pair. *)

val reachable : t -> id -> Int_set.t
(** Nodes reachable from a node by a non-empty path. *)

val transitive_closure : t -> t
(** Smallest transitive relation containing the argument.  Copies the pairs
    into one dense {!Bitrel.t} over [nodes r], closes it there in place
    ({!Bitrel.close}: SCC condensation, then word-parallel row-OR merges in
    reverse topological order) and converts back at the boundary. *)

val of_bitrel : Bitrel.t -> t
(** Persistent copy of a dense relation; universe nodes without pairs vanish
    (a {!t} only knows nodes appearing in some pair). *)

val is_transitive : t -> bool

val transitive_reduction : t -> t
(** Smallest relation with the same transitive closure, for {e acyclic}
    inputs: a pair is kept iff it is not implied by a two-step (or longer)
    path.  Used to declutter rendered constraint graphs.  On cyclic inputs
    the result still has the same closure but is not guaranteed minimal. *)

val irreflexive : t -> bool
(** No pair [(a, a)]. *)

val is_acyclic : t -> bool

val find_cycle : t -> id list option
(** [find_cycle r] is [Some [n1; ...; nk]] such that [n1 -> n2 -> ... -> nk ->
    n1] are pairs of [r], if any cycle exists; [None] for acyclic relations.
    Used to produce rejection certificates. *)

val topo_sort : nodes:Int_set.t -> t -> id list option
(** A linear extension of the relation over the given node universe (nodes of
    the relation outside [nodes] are ignored), or [None] if the restriction of
    the relation to [nodes] has a cycle.  Deterministic: ties are broken by
    ascending identifier, so certificates are reproducible. *)

val quotient : (id -> id) -> t -> t
(** [quotient cls r] contracts the relation by the clustering function [cls]:
    pair [(a, b)] becomes [(cls a, cls b)]; intra-cluster pairs are dropped.
    The result is acyclic iff the nodes of [r] can be laid out in a line with
    each cluster contiguous while respecting all inter-cluster pairs — the
    core of the calculation step of the reduction (Def. 16, step 1). *)

val total_on : Int_set.t -> t -> bool
(** [total_on ns r] is [true] iff for every two distinct [a], [b] in [ns],
    [mem a b r || mem b a r].  A front is serial (Def. 17) when its strong
    order is total on its nodes. *)

val pp : Format.formatter -> t -> unit
