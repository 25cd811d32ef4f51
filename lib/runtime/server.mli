(** Multi-stream certification service: the transport-independent half of
    the [compserve] daemon.

    A server multiplexes many monitored certification streams across a
    fixed pool of worker domains.  Each stream is an incremental
    {!Repro_core.Engine} session fed textual history chunks (the
    {!Repro_histlang.Syntax} language).  A stream keeps no text: each
    chunk is parsed alone and grows the stream's history through a
    {!Repro_histlang.Syntax.Session}, so an append costs the work of its
    chunk, and a chunk that would change a relation among the stream's
    nodes is refused with [err not an extension: ...].  Streams are assigned to shards by
    name hash, so one stream's appends execute single-threaded in arrival
    order while distinct streams certify in parallel.  With a truncation
    [window] every stream runs in bounded dense memory — the engine folds
    each certified prefix into a summary as the stream grows (see
    {!Repro_core.Engine.truncate}).

    The socket transport lives in [bin/cmd_serve.ml]; tests and the E18
    benchmark drive {!submit}/{!request} in-process. *)

(** Per-root chunking: turn a history file into a streamable chain. *)
module Chunks : sig
  type t = {
    preamble : string;  (** Schedule declarations; send in the first append. *)
    chunks : string list;  (** One chunk per root transaction, in root order. *)
  }

  val of_history : Repro_model.History.t -> t
  (** Split a history into a schedule preamble plus one textual chunk per
      root transaction such that [preamble ^ chunk_1 ^ .. ^ chunk_k]
      parses to {!Repro_model.History.prefix_by_roots}[ h k] — same
      root-major depth-first identifier assignment, relations restricted
      to the first [k] roots' subtrees (each relation line rides the
      chunk of its later endpoint).  Log lines are omitted: they are
      builder-input validation only (a full-permutation check no
      restriction satisfies) and no certification path consults them.
      Raises [Invalid_argument] on histories that cannot round-trip
      through the language: [Explicit] conflict specifications, schedule
      names outside the NAME alphabet. *)
end

(** The length-prefixed line protocol (version 3), both directions.
    Requests:
    {v
    open <stream> [<window>]
    append <stream> <nbytes> [t=<trace>:<parent>]\n<nbytes of history text>
    verdict <stream>
    explain <stream>
    close <stream>
    stats
    metrics
    health
    slow [<threshold ms>]
    v}
    Responses: [ok], [verdict <stream> accept] (an accepted append),
    [verdict <stream> accept <serial ids>] (a [verdict] request),
    [verdict <stream> reject <failure-kind>], [json <nbytes>\n<payload>\n],
    [text <nbytes>\n<payload>\n], [err <message>].

    Version 3 has the frames of version 2; it drops the serial witness
    from the answer to an accepted append, which would otherwise grow
    with the stream.  A client that reads only accept/reject and the
    failure kind is unaffected.  Version 1 frames are a strict subset of
    version 2: an [append] without the optional [t=…] trace-context
    token decodes exactly as before, and every v1 request line is still
    a v2 request line. *)
module Wire : sig
  val protocol_version : int
  (** [3]. *)

  type ctx = { trace : int; parent : int }
  (** Trace context carried on an append frame: the (non-zero) trace id
      and the caller's span id, both hex on the wire.  Servers parent the
      request's span tree under [parent]. *)

  type request =
    | Open of { stream : string; window : int option }
    | Append of { stream : string; body : string; ctx : ctx option }
    | Verdict of string
    | Explain of string
    | Close of string
    | Stats
    | Metrics  (** Prometheus exposition text over a merged snapshot. *)
    | Health  (** Liveness summary: shards, streams, uptime. *)
    | Slow of float option
        (** Slow-request log, optionally filtered to appends at or above
            the given wall-time threshold (seconds). *)

  type response =
    | Ok
    | Verdict_r of { stream : string; accepted : bool; detail : string }
    | Json_r of Repro_obs.Json.t
    | Text_r of string  (** Length-prefixed opaque text payload. *)
    | Err of string

  type 'a decoded =
    | Need_more  (** Frame incomplete; accumulate more bytes and retry. *)
    | Got of 'a * int  (** Decoded item and the number of bytes consumed. *)
    | Malformed of string * int
        (** Bad frame: diagnostic plus bytes to skip (the offending line),
            so one malformed request does not wedge the connection. *)

  val encode_request : request -> string
  val encode_response : response -> string

  val decode_request : string -> pos:int -> request decoded
  (** Decode one request frame starting at [pos]. *)

  val decode_response : string -> pos:int -> response decoded
end

type t

val create :
  ?shards:int -> ?window:int -> ?span_rate:float -> ?slow_s:float -> unit -> t
(** Start a server with [shards] worker domains (default: capped at the
    machine's recommended domain count, at most 8) and a default
    truncation [window] applied to streams that do not request their own
    (default: unbounded, no truncation).  [span_rate] enables request
    tracing: each shard gets its own span collector head-sampling traced
    appends at that rate (default: tracing off — the null collector, no
    cost on the append path).  Appends whose engine wall time reaches
    [slow_s] seconds (default 0.1) land in the shard's slow-request log,
    served by {!Wire.Slow}.  Raises [Invalid_argument] on a non-positive
    [shards]/[window], a [span_rate] outside [0,1], or a negative
    [slow_s]. *)

val shard_count : t -> int

val submit : t -> Wire.request -> (Wire.response -> unit) -> unit
(** Enqueue a request on its stream's home shard; the continuation runs
    on the worker domain once the request executes (so it must be quick
    and thread-safe — typically: push the encoded response onto a locked
    outbox and wake the transport).  Admin requests ([Stats], [Metrics],
    [Health], [Slow]) fan a snapshot hook out to every shard — each shard
    copies its private state on its own domain — and the continuation
    receives the answer assembled from the merged copies.  After {!drain}
    every request answers [Err "server draining"]. *)

val request : t -> Wire.request -> Wire.response
(** Blocking {!submit}: enqueue and wait for the response.  Must not be
    called from a shard worker (it would deadlock on its own queue). *)

val drain : t -> unit
(** Graceful shutdown: stop accepting work, let every shard finish its
    queued requests, and join the worker domains.  Idempotent. *)

val metrics_snapshot : t -> Repro_obs.Metrics.t
(** Merge every shard's registry into a fresh one (counters add,
    histograms add bucket-wise; series keep their [shard=i] label).
    Shard registries are written without locks on the worker domains, so
    call this only when no requests are in flight — after the responses
    you waited for, or after {!drain}. *)

val spans_snapshot : t -> Repro_obs.Span.t
(** Drain every shard's span collector, in shard index order, into a
    fresh collector (recording order preserved per shard, like
    {!metrics_snapshot}'s merge) and return it.  Draining empties the
    shard collectors.  Same quiescence requirement as
    {!metrics_snapshot}. *)
