(** Incremental topological order with strongly-connected-component
    maintenance — the O(δ)-per-edge kernel of the monitor's append path.

    A {!t} holds a growing directed graph over dense node indices
    [0 .. n_nodes t - 1] and maintains, across {!add_edge} calls, a
    union-find contraction of its strongly connected components together
    with a valid topological order of the condensation (Pearce–Kelly:
    inserting an edge reorders only the representatives inside the
    affected key window, discovered by a forward and a backward search
    bounded by the window).  Inserting an edge that closes a cycle
    contracts every representative on a path between its endpoints into
    one component in the same pass; the structure keeps answering order
    and acyclicity queries afterwards, which is what lets the engine
    report {e which} cluster went cyclic without re-running a batch
    reduction.

    Nodes only accumulate and edges are never removed: the monitor's
    extension contract (relations only grow) is the intended regime.
    Duplicate edge insertions are accepted and idempotent for the order
    and component state.  Values are mutable and single-domain. *)

type t

val create : ?capacity:int -> unit -> t
(** An empty graph; [capacity] pre-sizes the node arrays. *)

val n_nodes : t -> int

val n_edges : t -> int
(** Inserted edge count, duplicates included. *)

val resident_words : t -> int
(** Approximate heap words held by the backing arrays (adjacency
    vectors, order/union-find state, search scratch) — the cheap
    memory-accounting probe for engine introspection. *)

val ensure_nodes : t -> int -> unit
(** Grow the node universe to at least the given count; fresh nodes are
    isolated and ordered after every existing one. *)

val add_node : t -> unit

val add_edge : t -> int -> int -> unit
(** [add_edge t a b] inserts a -> b, restoring the maintained order (and
    contracting a component when the edge closes a cycle) in time
    proportional to the affected region.  Raises [Invalid_argument] when
    either node is outside the universe. *)

val rep : t -> int -> int
(** Union-find representative of the node's component. *)

val same_component : t -> int -> int -> bool

val component : t -> int -> int list
(** Members of the node's component. *)

val acyclic : t -> bool
(** O(1): no component contains a cycle (a multi-node component or a
    self-loop). *)

val pos : t -> int -> int
(** The maintained order key of the node's component: distinct across
    components, and for every inserted edge (a, b) spanning two
    components, [pos t a < pos t b].  When {!acyclic} holds, sorting any
    node subset by [pos] therefore yields a linear extension of the
    inserted edges — the monitor's O(k log k) witness path. *)

val find_cycle : t -> int list option
(** Some cycle [n1 -> ... -> nk -> n1] over inserted edges, or [None]
    exactly when {!acyclic}. *)

val topo_sort : t -> int list option
(** Canonical Kahn sort of the whole node universe with ascending-index
    tie-breaks — [Bitrel.topo_sort] of the inserted edges over a dense
    [n] x [n] relation, [None] on a cycle.  O(n²/63) words of scratch;
    a test path, not the append path. *)
