(** Well-formedness of composite executions against Defs. 3–4.

    {!History.Builder.seal} (and {!History.extend}, delta by delta)
    already guarantees the structural conditions (tree shape, acyclic
    invocation graph, orders over the right carriers) and completes the
    orders: strong is contained in weak, output orders extend
    intra-transaction orders (Def. 3, condition 2), strong input orders
    expand to strong output orders (condition 3), conflicting operations
    of weakly-input-ordered transactions are output-ordered the same way
    (condition 1a/1b), and clients' output orders are passed down as
    input orders (Def. 4.7) — a qcheck property in [test/test_model.ml]
    pins these on every sealed history.  This module checks what
    completion cannot establish from the declarations, and reports every
    violation:

    - input and output orders are partial orders (acyclic after
      transitive closure);
    - conflicting operations of different, unordered transactions are
      output-ordered one way or the other (condition 1c);
    - execution logs, when present, agree with the weak output order on
      conflicting pairs and with the strong output order on every pair. *)

open Repro_order.Ids

type error =
  | Cyclic_order of { sched : History.sched_id; which : string; cycle : id list }
      (** An input or output order of the schedule has a cycle ([which] is
          one of ["weak-in"], ["strong-in"], ["weak-out"], ["strong-out"]). *)
  | Unordered_conflict of { sched : History.sched_id; ops : id * id }
      (** A conflicting operation pair of different transactions that the
          schedule failed to order (condition 1c). *)
  | Log_contradicts_output of { sched : History.sched_id; ops : id * id }
      (** The weak output order claims [fst ops] before [snd ops] although
          they conflict and the log executed them in the other order. *)
  | Log_contradicts_strong of { sched : History.sched_id; ops : id * id }
      (** The strong output order claims strict temporal precedence of
          [fst ops] but the log executed [snd ops] first (strong orders
          bind every pair, commuting or not). *)

val pp_error : History.t -> Format.formatter -> error -> unit

val check : History.t -> error list
(** All violations, in schedule order; [[]] means the history is a valid
    composite execution in the sense of the paper. *)

val is_valid : History.t -> bool

(** {1 Lints}

    Histories that are {e valid} but silently hit a pessimistic default of
    their conflict specification.  Off the certification hot path: surfaced
    by [compcheck --stats] and the server's [stats] frame. *)

type warning =
  | Unknown_op_name of { sched : string; name : string; count : int }
      (** The schedule's operations use a name its spec does not recognize
          — [Rw] treats it as a writer, [Table] as commuting with
          everything, an ADT family as conflicting with anything sharing
          its item (see {!Conflict.known_name}).  Usually a typo in the
          workload or a spec that lags the workload's vocabulary. *)
  | Explicit_lock_fallback
      (** A lock table was built over an [Explicit] spec, whose node pairs
          have no label-level meaning: every label pair is treated as
          conflicting, so the component serializes completely. *)

val pp_warning : Format.formatter -> warning -> unit

val lint : History.t -> warning list
(** Unknown-operation warnings for every schedule whose spec discriminates
    by name, in schedule order (first-occurrence order within one
    schedule), with occurrence counts. *)

val warn_explicit_fallback : unit -> unit
(** Print {!Explicit_lock_fallback} to stderr — once per process, further
    calls are free and silent.  {!Repro_runtime.Lock.create} calls this
    when given an [Explicit] spec. *)
