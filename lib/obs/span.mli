(** Causal spans: the repository's one tracing layer.

    A span is a named, labeled interval belonging to a {e trace} and
    linked to a parent span, so the spans of one trace form a tree: for a
    served request, frame decode → shard queue wait → engine append →
    verdict encode.  Spans complement the registry ({!Metrics}: what
    happens on average) and the flight recorder ({!Recorder}: what
    happened recently) with the third observability surface: where one
    particular request's time went.  Instants are zero-length spans.

    {b Clocks.}  Timestamps are caller-supplied seconds, one clock per
    collector: request traces and the reduction profile use
    {!Clock.now_wall}; the simulator uses simulated time (1 unit = 1 ms),
    so its collector never receives a wall-clock span.

    {b Collection model.}  A collector is single-writer: the transport
    loop and each shard worker domain own one each, and a quiescent
    reader combines them with {!drain} in a fixed (shard-index) order —
    the same input-order determinism discipline as [Metrics.merge] and
    [Recorder.absorb], so a parallel run's drained span list is
    reproducible.  Ids are minted per collector with the collector's
    [tag] in the high bits, so ids from different collectors never
    collide within a trace and no cross-domain coordination (or RNG) is
    needed.

    {b Sampling.}  Head-based: the keep/drop decision is a deterministic
    hash of the trace id tested against [rate], made once per trace —
    every collector a request crosses agrees on it without
    communicating.  {!start}/{!emit} on an unsampled trace return
    {!none}/0 after the hash test, recording nothing.

    {b Null.}  {!null} is permanently disabled: every recording operation
    returns after one branch without allocating, so hot paths may be
    instrumented unconditionally. *)

type t

val create : ?rate:float -> ?tag:int -> unit -> t
(** A fresh collector.  [rate] (default 1.0) is the head-sampling
    probability in [0,1]; [tag] (default 0, max 2^22-1) is OR-ed into the
    high bits of every minted id.  Raises [Invalid_argument] on values
    outside those ranges. *)

val null : t
(** The disabled collector: never samples, never records. *)

val enabled : t -> bool

val rate : t -> float

val length : t -> int
(** Spans recorded (and not yet drained away). *)

val fresh_trace : t -> int
(** Mint a new trace id (0 on a disabled collector — 0 is never a valid
    trace id, so it doubles as "no context"). *)

val sampled : t -> int -> bool
(** [sampled t trace]: the head-sampling decision for [trace] — false on
    a disabled collector, on trace id 0, and on hash-test failure. *)

(** {1 Recording} *)

type active
(** Handle to a started, not yet finished span. *)

val none : active
(** The dropped-span handle: {!finish} on it is a no-op, {!id} is 0.
    Returned by {!start} when the trace is not sampled. *)

val id : active -> int
(** The span id to parent children onto (0 for {!none}). *)

val start :
  t ->
  ?parent:int ->
  ?cat:string ->
  ?labels:Labels.t ->
  trace:int ->
  ts:float ->
  string ->
  active
(** Open a span at [ts] (seconds on the collector's clock).  [parent] is
    the enclosing span's id (0 = root of the trace). *)

val finish : t -> active -> ts:float -> unit
(** Close a started span.  A span never finished exports as zero-length. *)

val emit :
  t ->
  ?parent:int ->
  ?cat:string ->
  ?labels:Labels.t ->
  trace:int ->
  t0:float ->
  t1:float ->
  string ->
  int
(** Record a complete span in one call (both endpoints already known) and
    return its id, or 0 when the trace is not sampled. *)

(** {1 Ambient context}

    The owning domain's "request being executed right now", so layers
    below the request loop (the engine) can attach spans without every
    signature threading a context.  Single-writer like the collector
    itself: set before the nested call, cleared after. *)

val set_ctx : t -> trace:int -> parent:int -> unit

val clear_ctx : t -> unit

val ctx_trace : t -> int
(** 0 when no context is set. *)

val ctx_parent : t -> int

(** {1 Reading and combining} *)

type view = {
  v_trace : int;
  v_id : int;
  v_parent : int;  (** 0 = trace root. *)
  v_name : string;
  v_cat : string;
  v_labels : Labels.t;
  v_t0 : float;
  v_t1 : float;  (** = [v_t0] for spans never finished. *)
}

val spans : t -> view list
(** Recorded spans in recording order. *)

val drain : into:t -> t -> unit
(** [drain ~into src] moves every span of [src] (appended after [into]'s,
    preserving [src]'s recording order) and empties [src].  No-op when
    [into] is disabled.  Both collectors must be quiescent — call only
    when their owning domains are idle or joined. *)

(** {1 Export} *)

val to_chrome : ?process:string -> t -> Json.t
(** The Chrome [trace_event] document (load it in Perfetto or
    [chrome://tracing]): one async begin/end pair ([ph] "b"/"e") per
    span in recording order, with [id] = the span's trace id so every
    span of a trace shares one track, timestamps in microseconds, and
    the span id, parent id and labels in the begin event's [args].  An
    empty category renders as ["span"].  [process] names the track group
    with a leading [process_name] metadata event.  The document is
    [{"traceEvents": [...], "displayTimeUnit": "ms"}]. *)

val to_json : t -> Json.t
(** The compact [spans/1] document:
    [{"schema":"spans/1","spans":[{"trace","span","parent"?,"name","cat",
    "start_us","dur_us","labels"?}]}] with ids as hex strings, spans in
    recording order. *)
