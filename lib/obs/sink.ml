type t = { metrics : Metrics.t; recorder : Recorder.t; spans : Span.t }

let null = { metrics = Metrics.null; recorder = Recorder.null; spans = Span.null }

let v ?(metrics = Metrics.null) ?(recorder = Recorder.null) ?(spans = Span.null)
    () =
  { metrics; recorder; spans }

let enabled t =
  Metrics.enabled t.metrics || Recorder.enabled t.recorder
  || Span.enabled t.spans
