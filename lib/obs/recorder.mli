(** The flight recorder: a bounded ring buffer of structured operational
    events, recorded unconditionally on the engine's and simulator's hot
    paths and dumped when something goes wrong.

    Unlike {!Span} (unbounded, opt-in, for offline profiling), a recorder
    is sized for always-on production use: capacity is fixed at creation,
    the slots are preallocated, and recording a new event overwrites the
    oldest — memory is O(capacity) by construction, independent of stream
    length.  When a monitored stream is rejected, the retained tail is the
    violation's immediate operational prehistory and ships inside the
    evidence report.

    Events carry a monotonically increasing sequence number, a monotonic
    wall-clock timestamp ({!Clock.now_wall}), a severity, a category
    naming the emitting subsystem ([engine], [sim], [cli], ...), a name
    and a {!Labels.t} payload.

    The {!null} recorder is permanently disabled: {!record} returns after
    one load and branch without allocating, so hot paths are instrumented
    unconditionally and pay nothing when recording is off. *)

type severity = Debug | Info | Warn | Error

val severity_string : severity -> string
(** ["debug"], ["info"], ["warn"], ["error"]. *)

type event = {
  seq : int;  (** 0-based position in the full stream, never reused. *)
  ts : float;  (** {!Clock.now_wall} seconds at record time. *)
  severity : severity;
  cat : string;
  name : string;
  labels : Labels.t;
}

type t

val default_capacity : int
(** 256 events. *)

val create : ?capacity:int -> unit -> t
(** A fresh recorder retaining the last [capacity] (default
    {!default_capacity}, must be [>= 1]) events. *)

val null : t
(** The disabled recorder: recording is a no-op, {!events} is always
    empty. *)

val enabled : t -> bool

val capacity : t -> int

(** {1 Recording} *)

val record :
  t -> ?severity:severity -> ?cat:string -> ?labels:Labels.t -> string -> unit
(** Record an event timestamped with {!Clock.now_wall}, evicting the
    oldest retained event when full.  Defaults: [Info], empty category,
    no labels. *)

val event :
  t ->
  ?severity:severity ->
  ?cat:string ->
  ?labels:Labels.t ->
  ts:float ->
  string ->
  unit
(** {!record} with a caller-supplied timestamp — used by {!absorb} and by
    subsystems that batch their own clock reads. *)

(** {1 Reading} *)

val total : t -> int
(** Events ever recorded (= the next sequence number). *)

val length : t -> int
(** Events currently retained: [min total capacity]. *)

val dropped : t -> int
(** Events evicted by the ring: [total - length]. *)

val events : t -> event list
(** The retained tail, oldest first. *)

val iter : (event -> unit) -> t -> unit

val absorb : into:t -> t -> unit
(** [absorb ~into src] replays [src]'s retained events into [into] —
    original timestamps, severities and payloads, fresh sequence numbers.
    No-op when [into] is disabled.  This is how per-worker recorders of a
    parallel run are drained back in input order. *)

val to_json : t -> Json.t
(** [{"capacity", "recorded", "dropped", "events": [{"seq", "ts",
    "severity", "cat", "name", "labels"?, "series"?}]}] — the
    flight-recorder dump.  A labeled event also carries ["series"], its
    canonical [Labels.series] encoding (label values escaped), so
    [Labels.decode_series] round-trips it from any dump, including the
    tail embedded in evidence reports. *)

val pp : Format.formatter -> t -> unit
(** Human-readable dump, one retained event per line, oldest first. *)
