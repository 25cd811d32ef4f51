(** A textual description language for composite executions, so the checker
    works as a standalone tool on files.

    Grammar (['#'] starts a comment; newlines are insignificant):

    {v
    history  := item*
    item     := "schedule" NAME "conflict" spec
              | "root" NAME "@" NAME label
              | "tx"   NAME "@" NAME "parent" NAME label
              | "leaf" NAME "parent" NAME label
              | "order"  NAME ":" NAME "<" NAME      # weak output pair
              | "order!" NAME ":" NAME "<" NAME      # strong output pair
              | "intra"  ":" NAME "<" NAME           # weak intra-transaction
              | "intra!" ":" NAME "<" NAME           # strong intra-transaction
              | "input"  ":" NAME "<" NAME           # weak root input order
              | "input!" ":" NAME "<" NAME           # strong root input order
              | "log" NAME ":" NAME*                 # execution log of a schedule
    spec     := "rw" | "never" | "always" | "same-item"
              | "counter" | "queue" | "set" | "escrow"
              | "table" "(" [NAME "/" NAME ("," NAME "/" NAME)*] ")"
              | "explicit" "(" [NAME "/" NAME ("," NAME "/" NAME)*] ")"
              | "adt" "(" [class ("," class)*] [";" [rule ("," rule)*]] ")"
    class    := NAME "=" NAME ("/" NAME)*          # class = member ops
    rule     := NAME "/" NAME "=" cond             # conflicting class pair
    cond     := "always" | "item" | "args" | "range"
    label    := NAME [ "(" [ARG ("," ARG)*] ")" ]
    v}

    Node and schedule [NAME]s are arbitrary identifiers
    ([A-Za-z0-9_.'-]+); a node must be declared before it is referenced.
    In an [explicit] conflict specification the names refer to nodes, which
    therefore must be declared before the schedule — in printed output the
    specification is emitted after all nodes instead.  Note that [explicit]
    specs have no label-level meaning: runtime components that only see
    labels — the semantic lock tables of {!Repro_runtime.Lock} — fall back
    to treating {e every} pair as conflicting and emit a one-time
    [Validate] warning on stderr when they do (see
    {!Repro_model.Conflict.probe_labels}).

    [counter], [queue], [set] and [escrow] are the canonical ADT
    commutativity families of {!Repro_model.Adt}; [adt(...)] declares a
    custom family: operation classes ([class]) and symmetric conflicting
    class pairs ([rule]), each guarded by an argument condition — [always]
    (unconditional), [item] (same first argument), [args] (same first
    argument and intersecting remaining arguments), [range] (same first
    argument and overlapping numeric intervals from arguments 2 and 3).
    Class pairs without a rule commute; operation names outside every
    class conflict pessimistically with anything sharing their item.

    Example:

    {v
    schedule S conflict rw
    root T1 @ S T1
    root T2 @ S T2
    leaf a parent T1 r(x)
    leaf b parent T2 w(x)
    log S: a b
    v} *)

type error = { line : int; message : string }

exception Parse_error of error

val pp_error : Format.formatter -> error -> unit

val parse : string -> Repro_model.History.t
(** Parse a history description.  Raises {!Parse_error} on syntax or
    reference errors, [Invalid_argument] when the builder rejects the
    structure (see {!Repro_model.History.Builder.seal}). *)

val parse_file : string -> Repro_model.History.t

(** A stream of chunks, ingested one chunk at a time: the text of a
    stream is the concatenation of its chunks, and each chunk costs the
    work of its own declarations, not of the stream so far.

    A session is the stream's history plus its node and schedule name
    tables.  It is persistent: {!feed} returns a new session, and the old
    one stays valid, so a refused chunk leaves nothing behind. *)
module Session : sig
  type t

  val empty : unit -> t
  (** No schedules, no nodes. *)

  val history : t -> Repro_model.History.t

  val feed : t -> string -> t
  (** [feed s chunk] lexes and parses [chunk] alone, as if it ended in a
      newline (no token spans two chunks), and declares its items on top
      of [s] through {!Repro_model.History.extend}.  Names resolve against
      the session's tables first, then the chunk's own declarations, so
      forward references inside a chunk work as in {!parse}.  The result's
      history equals {!parse} of the chunks fed so far joined by newlines.

      Raises {!Parse_error}, with line numbers relative to the chunk, on
      syntax and name errors (including a name the session already
      declared), and [Invalid_argument] as
      {!Repro_model.History.extend} does — in particular on a chunk that
      does not extend the session's history. *)
end

val spec_of_string : string -> Repro_model.Conflict.spec
(** Parse a bare conflict specification ([spec] in the grammar), for
    command lines such as [compgen --conflict].  Rejects [explicit] — its
    pairs reference nodes of a history — and trailing input.  Raises
    {!Parse_error}. *)

val is_name_char : char -> bool
(** The [NAME] alphabet, [A-Za-z0-9_.'-]. *)

val keywords : string list
(** The item keywords, which a [NAME] in item position cannot be. *)

val print_spec : Format.formatter -> Repro_model.Conflict.spec -> unit
(** Print a conflict specification ([spec] in the grammar).  An
    [explicit] spec prints its pairs over node names [n<id>]. *)

val print : Format.formatter -> Repro_model.History.t -> unit
(** Print a history in the language.  Node names are [n<id>]; the output
    includes every schedule (with its conflict specification), node, intra
    order, root input order, log, and the full weak/strong output orders, so
    [parse (print h)] reconstructs an equivalent history (same verdicts,
    same relations). *)

val to_string : Repro_model.History.t -> string
