(* The monitor subcommand: streaming certification of one history's
   extension chain.  On a file the chain is the root prefixes
   ({!History.prefix_by_roots}); on stdin it is the history after each
   certified chunk of text, grown by [Syntax.Session.feed] as [compserve]
   grows a stream (see [run_stream]).  Each step is certified by one
   incremental {!Repro_core.Engine.extend} against the previous step's
   warm state, and the loop stops at the first violating step — the
   monitoring story of the checker: "which commit broke the execution",
   not just "is the final history correct".  The evidence report for the
   stopping step is assembled from the same session: the incrementally
   maintained relations stay warm and only the certificate is (lazily)
   derived over them.

   Production observability: the session always carries a flight recorder
   (bounded ring, so always-on costs O(capacity) memory), and a rejection's
   evidence report embeds its retained tail plus the engine-stats/1
   introspection snapshot — the operational prehistory and the engine's
   state at the moment of the violation.  With a live [progress] the
   stderr line tracks prefixes done, append rate and the p99 append
   latency read from the session's own registry. *)
open Repro_model
module Json = Repro_obs.Json
module Metrics = Repro_obs.Metrics
module Span = Repro_obs.Span
module Session = Repro_histlang.Syntax.Session

(* One monitor append = one trace: mint a fresh trace id and set it as
   the collector's ambient context around the engine call, so the engine
   emits its [engine.append] span (path label, node/cluster counts) as
   the trace's root.  No-op on a disabled collector. *)
let with_append_trace spans f =
  if Span.enabled spans then begin
    let trace = Span.fresh_trace spans in
    Span.set_ctx spans ~trace ~parent:0;
    let r = f () in
    Span.clear_ctx spans;
    r
  end
  else f ()

(* Refresh the memory gauge from the cheap introspection path — counters
   plus the memo/mirror word accounting, no [Obj.reachable_words] walk, so
   polling stays O(1) however long the stream gets.  The full walk still
   runs once where it matters: embedded (deep) in a rejection's evidence
   report.  The cheap [engine.*] state gauges are refreshed by the engine
   itself on every advance. *)
let snapshot_gauges metrics s =
  if Metrics.enabled metrics then
    match Repro_core.Engine.introspect ~deep:false s with
    | Json.Obj fields -> (
      match List.assoc_opt "memory" fields with
      | Some (Json.Obj mem) -> (
        match List.assoc_opt "resident_estimate_words" mem with
        | Some (Json.Int w) ->
          Metrics.set metrics "engine.resident_estimate_words" (float_of_int w)
        | _ -> ())
      | _ -> ())
    | _ -> ()

let introspect_every = 32

(* The session and reporting both input modes share: engine and sink
   set-up, the progress line, the per-step trail, the reject evidence and
   the accept summary.  One certification step is a [unit] ("append" on
   stdin, "prefix" on a file) and [total] the step count when it is known
   up front.  Returns [step k h], which certifies step [k] (history [h])
   and answers [Some code] on a reject, and [accept k h], which prints the
   summary after [k] accepted steps. *)
let session ~ppf ~eppf ~obs ~progress ?window ~brief explain format shrink
    ~path ~unit ~total =
  let explain = explain || shrink || format <> `Text in
  let hpf = if format = `Text then ppf else eppf in
  let metrics = obs.Repro_obs.Sink.metrics in
  let recorder =
    if Repro_obs.Recorder.enabled obs.Repro_obs.Sink.recorder then
      obs.Repro_obs.Sink.recorder
    else Repro_obs.Recorder.create ()
  in
  let spans = obs.Repro_obs.Sink.spans in
  let s =
    Repro_core.Engine.create
      ~obs:(Repro_obs.Sink.v ~metrics ~recorder ~spans ())
      ?window ()
  in
  let units k =
    if k = 1 then unit else if unit = "prefix" then "prefixes" else unit ^ "s"
  in
  let at k =
    match total with Some n -> Fmt.str "%d/%d" k n | None -> string_of_int k
  in
  let t0 = Repro_obs.Clock.now_wall () in
  let show_progress k =
    if Cli_common.Progress.enabled progress then begin
      let dt = Repro_obs.Clock.now_wall () -. t0 in
      let rate = if dt > 0.0 then float_of_int k /. dt else 0.0 in
      let p99 =
        match Metrics.percentile metrics "monitor.append_wall_s" 0.99 with
        | Some v -> Fmt.str "  p99 append %.2fms" (v *. 1e3)
        | None -> ""
      in
      Cli_common.Progress.update progress
        (Fmt.str "monitor %s: %s %s  %.0f %s/s%s" path unit (at k) rate
           (units 2) p99)
    end
  in
  let step k h =
    match with_append_trace spans (fun () -> Repro_core.Engine.extend s h) with
    | Repro_core.Engine.Accepted _ ->
      if k mod introspect_every = 0 then snapshot_gauges metrics s;
      show_progress k;
      if not brief then Fmt.pf hpf "%s %s: accept@." unit (at k);
      None
    | Repro_core.Engine.Rejected f ->
      snapshot_gauges metrics s;
      Cli_common.Progress.finish progress;
      let rel = Repro_core.Engine.relations s in
      if brief then Fmt.pf ppf "%s: monitor: reject at %s %s@." path unit (at k)
      else begin
        Fmt.pf hpf "%s %s: reject@." unit (at k);
        Fmt.pf hpf "first violating %s: %d; %a@." unit k
          (Repro_core.Reduction.pp_failure ?rel h)
          f
      end;
      if explain then begin
        (* The violation's operational context rides along with the
           forensic evidence: where in the stream it happened, the
           flight-recorder tail leading up to it, and the engine's state
           snapshot at the moment of rejection. *)
        let extra =
          [
            ( "prefix",
              Json.Obj
                [
                  ("index", Json.Int k);
                  ("of", Json.Int (Option.value total ~default:k));
                ] );
            ("flight_recorder", Repro_obs.Recorder.to_json recorder);
            ("engine", Repro_core.Engine.introspect s);
          ]
        in
        Cmd_explain.report ~extra ppf format shrink s
      end;
      Some 1
  in
  let accept k h =
    snapshot_gauges metrics s;
    Cli_common.Progress.finish progress;
    let fast = (Repro_core.Engine.stats s).Repro_core.Engine.fastpath_hits in
    if brief then Fmt.pf ppf "%s: monitor: accept (%d %s)@." path k (units k)
    else
      Fmt.pf hpf
        "monitor: accept - %s Comp-C (%d %s skipped on the fast path)@."
        (match total with
        | Some n -> Fmt.str "all %d %s" n (units n)
        | None -> Fmt.str "%d stream %s" k (units k))
        fast
        (if fast = 1 then "reduction" else "reductions");
    if explain then begin
      (* A history that never entered the session (rootless, or all
         deferred) is analyzed now so the report has a frame to read. *)
      if Repro_core.Engine.history s = None then
        ignore (Repro_core.Engine.extend s h);
      Cmd_explain.report ppf format shrink s
    end;
    0
  in
  (step, accept)

(* The item keyword a line starts with: its first run of name
   characters (["order!"] gives ["order"]). *)
let keyword line =
  let line = String.trim line in
  let n = ref 0 in
  while !n < String.length line && Repro_histlang.Syntax.is_name_char line.[!n] do
    incr n
  done;
  String.sub line 0 !n

(* Streaming mode (path "-"): certify appends as they arrive on stdin, so
   live streams can be piped into the monitor.  Stdin is cut into chunks,
   each ending at a [root] line that follows one of its relation lines,
   so a root-major stream such as [Server.Chunks]'s is cut once per root
   that carries relation lines.  A chunk is fed alone to the stream's
   [Syntax.Session], the ingestion [compserve] appends go through, and
   is certified once it parses, adds nodes and (unless
   [skip_validation]) leaves the history model-valid; otherwise it waits
   and merges with the next chunk.  A printed history, whose relation
   lines all trail its nodes, is therefore one chunk, certified at end
   of stream.  A chunk refused as not an extension stays refused
   whatever follows, so the run ends there with exit 2.  End of stream
   goes through the same gate as a file. *)
let run_stream ?(ppf = Fmt.stdout) ?(eppf = Fmt.stderr)
    ?(obs = Repro_obs.Sink.null) ?(progress = Cli_common.Progress.null)
    ?window ~brief explain format shrink skip_validation () =
  let step, accept =
    session ~ppf ~eppf ~obs ~progress ?window ~brief explain format shrink
      ~path:"-" ~unit:"append" ~total:None
  in
  let session = ref (Session.empty ()) and appends = ref 0 in
  let nodes () = History.n_nodes (Session.history !session) in
  let chunk = Buffer.create 4096 in
  (* Stream lines read, those before the chunk's first, and whether the
     chunk holds a relation line. *)
  let lines = ref 0 and start = ref 0 and related = ref false in
  let fail msg =
    Cli_common.Progress.finish progress;
    Cli_common.error ~ppf ~eppf ~brief "-" msg
  in
  let feed () =
    match Session.feed !session (Buffer.contents chunk) with
    | next -> Ok next
    | exception ((Repro_histlang.Syntax.Parse_error _ | Invalid_argument _) as e) ->
      Error (Cli_common.ingest_error ~line:!start e)
  in
  (* Certify [next] as the next append and start a new chunk; [Some
     code] ends the run.  The engine refuses a schedule declared after
     the first append, which no later chunk can undo either. *)
  let certify next =
    incr appends;
    match step !appends (Session.history next) with
    | exception Invalid_argument msg -> Some (fail ("not an extension: " ^ msg))
    | Some code -> Some code
    | None ->
      session := next;
      Buffer.clear chunk;
      start := !lines;
      related := false;
      None
  in
  let cut () =
    match feed () with
    | Error msg when String.starts_with ~prefix:"not an extension" msg ->
      Some (fail msg)
    | Error _ -> None
    | Ok next ->
      let h = Session.history next in
      if
        History.n_nodes h = nodes ()
        || ((not skip_validation) && Repro_model.Validate.check h <> [])
      then None
      else certify next
  in
  let rec pump () =
    match input_line stdin with
    | exception End_of_file -> finish ()
    | text -> (
      let kw = keyword text in
      match if !related && kw = "root" then cut () else None with
      | Some code -> code
      | None ->
        incr lines;
        Buffer.add_string chunk text;
        Buffer.add_char chunk '\n';
        (match kw with
        | "order" | "intra" | "input" | "log" -> related := true
        | _ -> ());
        pump ())
  and finish () =
    Cli_common.Progress.finish progress;
    let read = feed () in
    Cli_common.gate ~ppf ~eppf ~brief ~skip_validation "-"
      (Result.map Session.history read)
    @@ fun h ->
    let last = if History.n_nodes h > nodes () then certify (Result.get_ok read) else None in
    match last with Some code -> code | None -> accept !appends h
  in
  pump ()

let run ?(ppf = Fmt.stdout) ?(eppf = Fmt.stderr)
    ?(obs = Repro_obs.Sink.null) ?(progress = Cli_common.Progress.null)
    ?window ~brief explain format shrink skip_validation path =
  if path = "-" then
    run_stream ~ppf ~eppf ~obs ~progress ?window ~brief explain format shrink
      skip_validation ()
  else
  Cli_common.gate ~ppf ~eppf ~brief ~skip_validation path
    (Cli_common.read_history path)
  @@ fun h ->
  let n = List.length (History.roots h) in
  let step, accept =
    session ~ppf ~eppf ~obs ~progress ?window ~brief explain format shrink
      ~path ~unit:"prefix" ~total:(Some n)
  in
  let rec go k =
    if k > n then accept n h
    else
      match step k (History.prefix_by_roots h k) with
      | Some code -> code
      | None -> go (k + 1)
  in
  go 1
