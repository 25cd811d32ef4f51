(** A telemetry sink: one record bundling the metrics registry, the flight
    recorder and the span collector an analysis should report into.

    Before the certification engine, every layer of the checker pipeline
    re-plumbed its own optional telemetry arguments; a sink carries all
    three channels through one value (and one [enabled] check).  The
    {!null} sink is built from the null instances of all three, so
    unconditionally instrumented code pays nothing when telemetry is
    off. *)

type t = { metrics : Metrics.t; recorder : Recorder.t; spans : Span.t }

val null : t
(** The disabled sink: all three components are the null instances. *)

val v :
  ?metrics:Metrics.t -> ?recorder:Recorder.t -> ?spans:Span.t -> unit -> t
(** Build a sink; each component defaults to its null instance. *)

val enabled : t -> bool
(** True iff any component is enabled. *)
