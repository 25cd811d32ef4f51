(** Random composite executions.

    These generators produce {e valid} composite executions (every schedule
    individually satisfies Def. 3) that are nevertheless free to be globally
    incorrect: each schedule serializes its own operations independently, so
    cross-schedule interleavings routinely create observed-order cycles.
    That mix is exactly what the theorem-validation experiments need — a
    population on which SCC/FCC/JCC and Comp-C can agree or disagree.

    Generation is two-phase.  Phase one builds the structure: the forest of
    transactions with semantically meaningful labels (["add"]/["get"]
    services over item pools, implemented by ["r"]/["w"] leaves, so that
    lower-level conflicts can {e disappear} at higher levels — two [add]s on
    one item conflict as reads/writes but commute as services), plus random
    intra-transaction orders and root input orders.  Phase two walks the
    schedules top-down and draws each schedule's execution log as a random
    linear extension of the constraints that schedule is obliged to respect
    (intra-transaction orders and conflicting operations of input-ordered
    transactions), then pushes the resulting output order down as input
    orders — mirroring Def. 4.7 — before drawing the next level's logs. *)

open Repro_model

type profile = {
  ops_min : int;  (** Minimum children per transaction. *)
  ops_max : int;  (** Maximum children per transaction. *)
  items : int;  (** Item-pool size per schedule; smaller pools mean denser conflicts. *)
  read_ratio : float;  (** Probability that a generated operation is a reader. *)
  root_input_prob : float;  (** Probability of weakly input-ordering a root pair. *)
  strong_input_prob : float;  (** Probability that such an order is strong. *)
  intra_prob : float;
      (** Probability of intra-transaction-ordering an adjacent sibling pair
          (Def. 2). *)
  intra_strong_prob : float;  (** Probability that such an intra order is strong. *)
}

val default_profile : profile
(** [{ ops_min = 1; ops_max = 3; items = 3; read_ratio = 0.4;
      root_input_prob = 0.1; strong_input_prob = 0.2;
      intra_prob = 0.3; intra_strong_prob = 0.3 }] *)

val service_table : (string * string) list
(** Conflicting service-name pairs for internal schedules: [add] behaves as
    a read-write on its item, [get] as a read; [r]/[w] leaves are included
    so mixed schedules judge them correctly. *)

val populate : ?stream:bool -> Prng.t -> History.t -> History.t
(** Phase two alone: draw fresh execution logs (top-down, as described
    above) for an already-built structure and rebuild the history.  The
    input's own logs are ignored.

    With [stream] (default [false]) each log is the {e identifier-minimal}
    linear extension of its constraints instead of a uniformly random one.
    Identifiers are assigned root-major, so operations of earlier roots
    execute before operations of later ones wherever the constraints
    allow: the history looks like an execution that grew at the end, one
    root at a time — the shape the simulator emits and the incremental
    {!Repro_core.Engine.extend} is built for — rather than a batch
    interleaving.  All generators below pass [stream] through. *)

val flat :
  ?profile:profile -> ?stream:bool -> ?conflict:Conflict.spec -> Prng.t ->
  roots:int -> History.t
(** One leaf schedule holding all roots.  [conflict] (default {!Conflict.Rw})
    is the schedule's spec; leaf labels are drawn from its vocabulary —
    read/write for the page-level specs (identical PRNG draws to the
    pre-ADT generators, so seeds reproduce), family operations for
    {!Conflict.Adt} specs (counter [inc]/[dec]/[get], queue [enq]/[deq],
    set [add]/[remove]/[contains], escrow [escrow]/[put]/[take]). *)

val stack :
  ?profile:profile -> ?stream:bool -> ?conflict:Conflict.spec -> Prng.t ->
  levels:int -> roots:int -> History.t
(** An n-level stack (Def. 21).  [conflict] overrides the {e bottom}
    (operation-level) schedule's spec only; the service levels above keep
    {!service_table}, so swapping a page-level spec for an ADT family
    compares at a matched topology. *)

val fork :
  ?profile:profile -> ?stream:bool -> ?conflict:Conflict.spec -> Prng.t ->
  branches:int -> roots:int -> History.t
(** A fork (Def. 23): the branches own disjoint item pools, so operations of
    different branches commute as the definition requires.  [conflict]
    (default {!Conflict.Rw}) is the branch schedules' spec. *)

val join :
  ?profile:profile -> ?stream:bool -> ?conflict:Conflict.spec -> Prng.t ->
  branches:int -> roots:int -> History.t
(** A join (Def. 25): all branches delegate to one shared leaf schedule,
    whose spec [conflict] (default {!Conflict.Rw}) overrides. *)

val general :
  ?profile:profile -> ?stream:bool -> ?conflict:Conflict.spec -> Prng.t ->
  schedules:int -> roots:int -> History.t
(** An arbitrary recursion-free configuration: a random invocation DAG whose
    source schedules hold the roots and whose transactions mix leaf
    operations with subtransactions on randomly chosen invoked schedules.
    [conflict] (default {!service_table}) replaces {e every} schedule's
    spec. *)
