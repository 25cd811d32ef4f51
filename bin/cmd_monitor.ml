(* The monitor subcommand: streaming certification of one history's
   root-prefix chain.  The k-prefix is certified by one incremental
   {!Repro_core.Engine.extend} against the (k-1)-prefix's warm state, and
   the loop stops at the first violating prefix index — the monitoring
   story of the checker: "which commit broke the execution", not just "is
   the final history correct".  The evidence report for the stopping
   prefix is assembled from the same session: the incrementally maintained
   relations stay warm and only the certificate is (lazily) derived over
   them.

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

(* Streaming mode (path "-"): certify appends as they arrive on stdin
   instead of slurping the whole description first, so live streams can
   be piped into the monitor (and into the compserve smoke tests).  A
   flush point is the arrival of each new root declaration — chunked
   streams are root-major, so each flush certifies exactly one more
   root.  A prefix that does not yet parse, is not yet model-valid, or
   adds no nodes simply defers to the next flush point; a printed
   history whose order lines all trail the node declarations therefore
   certifies once, at end of stream — the historical slurp behaviour. *)
let run_stream ?(ppf = Fmt.stdout) ?(eppf = Fmt.stderr)
    ?(obs = Repro_obs.Sink.null) ?(progress = Cli_common.Progress.null)
    ?window ~brief explain format shrink skip_validation () =
  let step, accept =
    session ~ppf ~eppf ~obs ~progress ?window ~brief explain format shrink
      ~path:"-" ~unit:"append" ~total:None
  in
  let text = Buffer.create 4096 in
  let nodes = ref 0 in
  let appends = ref 0 in
  (* One certification attempt over the accumulated text.  [`Deferred]
     folds three mid-stream states — unparseable yet, model-invalid yet,
     no new nodes — that all mean "wait for more input". *)
  let try_append () =
    match Repro_histlang.Syntax.parse (Buffer.contents text) with
    | exception Repro_histlang.Syntax.Parse_error _ -> `Deferred
    | exception Invalid_argument _ -> `Deferred
    | h ->
      if History.n_nodes h <= !nodes then `Deferred
      else if
        (not skip_validation) && Repro_model.Validate.check h <> []
      then `Deferred
      else begin
        nodes := History.n_nodes h;
        incr appends;
        match step !appends h with Some c -> `Reject c | None -> `Ok
      end
  in
  let is_root_line line =
    let n = String.length line in
    let i = ref 0 in
    while !i < n && (line.[!i] = ' ' || line.[!i] = '\t') do
      incr i
    done;
    !i + 4 <= n
    && String.sub line !i 4 = "root"
    && (!i + 4 = n || line.[!i + 4] = ' ' || line.[!i + 4] = '\t')
  in
  let roots_seen = ref 0 in
  let rec pump () =
    match input_line stdin with
    | exception End_of_file -> finish ()
    | line ->
      let flush_now = is_root_line line && !roots_seen > 0 in
      let code = if flush_now then try_append () else `Deferred in
      if is_root_line line then incr roots_seen;
      Buffer.add_string text line;
      Buffer.add_char text '\n';
      (match code with `Reject c -> c | `Ok | `Deferred -> pump ())
  and finish () =
    (* End of stream: the full description must parse and validate (the
       same gate the file path applies up front), then the final prefix
       is certified. *)
    match Repro_histlang.Syntax.parse (Buffer.contents text) with
    | exception Repro_histlang.Syntax.Parse_error e ->
      Cli_common.Progress.finish progress;
      let msg = Fmt.str "parse error: %a" Repro_histlang.Syntax.pp_error e in
      if brief then Fmt.pf ppf "-: error: %s@." msg
      else Fmt.pf eppf "compcheck: %s@." msg;
      2
    | exception Invalid_argument msg ->
      Cli_common.Progress.finish progress;
      if brief then Fmt.pf ppf "-: error: invalid history: %s@." msg
      else Fmt.pf eppf "compcheck: invalid history: %s@." msg;
      2
    | h ->
      let validation = Repro_model.Validate.check h in
      if validation <> [] && not skip_validation then begin
        Cli_common.Progress.finish progress;
        if brief then
          Fmt.pf ppf "-: invalid: %d model violation%s@." (List.length validation)
            (if List.length validation = 1 then "" else "s")
        else begin
          Fmt.pf eppf "history violates the composite-system model (Defs. 3-4):@.";
          List.iter
            (fun e -> Fmt.pf eppf "  %a@." (Repro_model.Validate.pp_error h) e)
            validation
        end;
        2
      end
      else begin
        match (if History.n_nodes h > !nodes then try_append () else `Ok) with
        | `Reject c -> c
        | `Ok | `Deferred -> accept !appends h
      end
  in
  pump ()

let run ?(ppf = Fmt.stdout) ?(eppf = Fmt.stderr)
    ?(obs = Repro_obs.Sink.null) ?(progress = Cli_common.Progress.null)
    ?window ~brief explain format shrink skip_validation path =
  if path = "-" then
    run_stream ~ppf ~eppf ~obs ~progress ?window ~brief explain format shrink
      skip_validation ()
  else
  Cli_common.with_history ~ppf ~eppf ~brief ~skip_validation path @@ fun h ->
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
