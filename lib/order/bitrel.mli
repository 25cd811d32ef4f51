(** Dense bit relations: one flat array of [Sys.int_size]-bit words.

    This is the performance kernel behind {!Rel} and the observed-order
    machinery of {!Repro_core.Observed}.  A relation is a bit matrix kept
    in a single [int array], row [i] at word offset [i * stride]: the
    graph algorithms that dominate the Comp-C decision path — transitive
    closure, cycle detection, topological sorting — run word-parallel
    over it, and a relation costs one allocation however many rows it
    has.

    Two kinds of value share the representation:
    - {!create}/{!of_ids} build a fixed square relation over an arbitrary
      set of external identifiers, compacted to dense indices in
      ascending identifier order (so deterministic tie-breaks carry over
      from {!Rel}) — the batch callers' form;
    - {!make} builds a growable [rows] x [cols] matrix indexed densely,
      whose identifiers are the indices themselves.  {!ensure}, {!reset}
      and {!shrink} move its active window; capacity grows by half in
      both dimensions, so appending a node costs O(1) amortized — the
      form of the append path's mirror.

    Probes, bit sets and row scans allocate nothing.  Values are
    {e mutable} (in contrast to {!Rel.t}) and must not be mutated from two
    domains concurrently; the batch drivers hand each domain its own
    values. *)

open Ids

type t

val create : Int_set.t -> t
(** The empty relation over the given universe. *)

val of_ids : id array -> t
(** {!create} from a strictly increasing identifier array (raises
    [Invalid_argument] otherwise) — the allocation-free-universe path for
    hot callers that already hold the sorted node array. *)

val make : rows:int -> cols:int -> t
(** Zeroed dense matrix with the given active window.  Raises
    [Invalid_argument] on negative dimensions. *)

val ensure : t -> rows:int -> cols:int -> unit
(** Grow the active window of a {!make} relation (never shrinks it).
    Existing bits keep their coordinates; fresh space is zero. *)

val reset : t -> rows:int -> cols:int -> unit
(** Zero everything and set the active window, reusing the backing array
    when capacity allows — the cheap-rebuild path of incremental
    mirrors. *)

val shrink : t -> rows:int -> cols:int -> unit
(** Like {!reset}, but reallocates the backing array when it holds more
    than 4x the words the new window needs — the truncation path, where a
    mirror rebases from a long prefix onto a small window and must
    release, not just zero, the dense bits. *)

val resident_words : t -> int
(** Words of backing array currently allocated — the memory-accounting
    probe. *)

val add : t -> id -> id -> unit
(** In-place.  Raises [Invalid_argument] if either node is outside the
    universe (for {!make} relations: outside the active window). *)

val mem : t -> id -> id -> bool
(** [false] (rather than an error) when either node is outside the
    universe, matching [Rel.mem] on unknown nodes. *)

val row_iter : t -> int -> (int -> unit) -> unit
(** [row_iter t i f] calls [f] on the set columns of row [i], ascending,
    as compact indices — the identifiers themselves for a {!make}
    relation.  Raises [Invalid_argument] on a row outside the window. *)

val iter : (id -> id -> unit) -> t -> unit
(** Ascending lexicographic order of external identifiers. *)

val cardinal : t -> int
(** Number of pairs (population count over all rows). *)

val to_list : t -> (id * id) list

(** {1 Graph algorithms}

    Over the relation read as an adjacency matrix; a {!make} relation
    must be square (raises [Invalid_argument] otherwise). *)

val scc_condensation : t -> int array * int
(** Tarjan: [comp_of] (compact index -> component) and the component
    count.  Components are numbered in completion order, so ascending
    component number is reverse topological (sinks first). *)

val close : t -> unit
(** Replace the relation, in place, by its transitive closure: SCC
    condensation (Purdom), then word-parallel row-OR accumulation of reach
    sets in reverse topological order.  Self-pairs appear exactly for nodes
    on cycles, matching {!Rel.transitive_closure}. *)

val find_cycle : t -> id list option
(** Some cycle [n1 -> ... -> nk -> n1], or [None] when acyclic. *)

val is_acyclic : t -> bool

val topo_sort : t -> id list option
(** A linear extension over the {e whole} universe (isolated nodes
    included), or [None] on a cycle.  Ties break by ascending external
    identifier, so the output equals [Rel.topo_sort ~nodes:universe] on
    the same pairs. *)
