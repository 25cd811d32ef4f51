(* compcheck: decide correctness criteria for composite executions given in
   the history description language.  Exit code 0 = all accepted, 1 = some
   history rejected, 2 = usage/parse/validation trouble.  With several FILE
   arguments the checks run on a domain pool (--jobs) and print one verdict
   line per file, in argument order.

   This file is only the command line: flag declarations and the dispatch
   between the subcommand modules.  The work lives in {!Cmd_check} (batch
   verdicts), {!Cmd_monitor} (streaming prefix certification) and
   {!Cmd_batch} (the many-FILE domain pool); all of them drive one
   {!Repro_core.Engine} session per history and render evidence through
   {!Cmd_explain}. *)
open Cmdliner

let run paths criterion explain format shrink stats skip_validation dot jobs
    monitor window fail_fast metrics_out metrics_format trace_out coverage_out
    progress =
  let monitor_conflict =
    monitor
    && (stats || dot <> None || String.lowercase_ascii criterion <> "comp-c")
  in
  if monitor_conflict then begin
    Fmt.epr
      "compcheck: --monitor decides Comp-C prefix by prefix and cannot be \
       combined with --stats, --dot or another --criterion@.";
    2
  end
  else if window <> None && not monitor then begin
    Fmt.epr
      "compcheck: --window bounds a streaming session's memory and requires \
       --monitor@.";
    2
  end
  else if (match window with Some w -> w <= 0 | None -> false) then begin
    Fmt.epr "compcheck: --window must be positive@.";
    2
  end
  else if format = `Dot && List.length paths > 1 then begin
    Fmt.epr "compcheck: --format dot requires a single FILE@.";
    2
  end
  else if trace_out <> None && not monitor then begin
    Fmt.epr
      "compcheck: --trace records per-append span trees and requires \
       --monitor@.";
    2
  end
  else begin
    (* The run-wide registry backing --metrics and --coverage; also
       created for a live single-file monitor so the progress line can
       read the p99 append latency back out of it. *)
    let progress_on = Cli_common.Progress.want progress in
    let metrics =
      if metrics_out <> None || coverage_out <> None || (monitor && progress_on)
      then Repro_obs.Metrics.create ()
      else Repro_obs.Metrics.null
    in
    let spans =
      match trace_out with
      | Some _ -> Repro_obs.Span.create ()
      | None -> Repro_obs.Span.null
    in
    let obs = Repro_obs.Sink.v ~metrics ~spans () in
    let code =
      match paths with
      | [ path ] ->
        if monitor then
          Cmd_monitor.run ~obs
            ~progress:(Cli_common.Progress.create progress_on)
            ?window ~brief:false explain format shrink skip_validation path
        else
          Cmd_check.run ~obs ~brief:false criterion explain format shrink
            stats skip_validation dot path
      | paths ->
        if dot <> None then begin
          Fmt.epr "compcheck: --dot requires a single FILE@.";
          2
        end
        else begin
          let total = List.length paths in
          let bar = Cli_common.Progress.create progress_on in
          let t0 = Repro_obs.Clock.now_wall () in
          let on_done ~completed =
            let dt = Repro_obs.Clock.now_wall () -. t0 in
            let rate = if dt > 0.0 then float_of_int completed /. dt else 0.0 in
            Cli_common.Progress.update bar
              (Fmt.str "compcheck: %d/%d files  %.1f files/s" completed total
                 rate)
          in
          let code =
            Cmd_batch.run ?jobs ~on_done ~obs ~fail_fast
              (fun ~ppf ~eppf ~obs path ->
                if monitor then
                  Cmd_monitor.run ~ppf ~eppf ~obs ?window ~brief:true explain
                    format shrink skip_validation path
                else
                  Cmd_check.run ~ppf ~eppf ~obs ~brief:true criterion explain
                    format shrink stats skip_validation None path)
              paths
          in
          Cli_common.Progress.finish bar;
          code
        end
    in
    (match metrics_out with
    | Some path ->
      Cli_common.write_metrics ~tool:"compcheck" ~format:metrics_format path
        metrics
    | None -> ());
    (match coverage_out with
    | Some path ->
      Cli_common.write_json ~tool:"compcheck" path
        (Repro_obs.Coverage.to_json metrics)
    | None -> ());
    (match trace_out with
    | Some path ->
      Cli_common.write_json ~tool:"compcheck" path
        (Repro_obs.Span.to_chrome ~process:"compcheck" spans)
    | None -> ());
    code
  end

let paths_arg =
  let doc =
    "History files in the description language ('-' for stdin).  With more \
     than one FILE, compcheck prints one verdict line per file and exits \
     non-zero if any history is rejected."
  in
  Arg.(non_empty & pos_all string [] & info [] ~docv:"FILE" ~doc)

let criterion_arg =
  let doc =
    "Criterion to decide: $(b,Comp-C) (default), $(b,SCC), $(b,FCC), $(b,JCC), \
     $(b,LLSR), $(b,OPSR), $(b,FlatCSR), or $(b,all)."
  in
  Arg.(value & opt string "Comp-C" & info [ "c"; "criterion" ] ~docv:"NAME" ~doc)

let explain_arg =
  let doc =
    "Print the full reduction trace (fronts, witness layouts, verdict) and, \
     on a rejection, the forensic evidence: the witness cycle with each \
     observed-order edge's Def. 10 derivation chain down to base pairs."
  in
  Arg.(value & flag & info [ "explain" ] ~doc)

let format_arg =
  let doc =
    "Evidence format for $(b,--explain): $(b,text) (default), $(b,json) \
     (machine-readable evidence/1 report), or $(b,dot) (execution forest \
     with the witness cycle highlighted; single FILE only).  A non-text \
     format implies $(b,--explain)."
  in
  Arg.(
    value
    & opt (enum [ ("text", `Text); ("json", `Json); ("dot", `Dot) ]) `Text
    & info [ "format" ] ~docv:"FMT" ~doc)

let shrink_arg =
  let doc =
    "On a rejection, delta-debug the history down to a 1-minimal \
     sub-history with the same failure kind and include it in the evidence \
     report.  Implies $(b,--explain)."
  in
  Arg.(value & flag & info [ "shrink" ] ~doc)

let stats_arg =
  let doc =
    "Print a reduction profile: observed-order closure sizing, then per \
     level the front sizes, cluster counts and wall-clock step timings of \
     the Comp-C decision."
  in
  Arg.(value & flag & info [ "stats" ] ~doc)

let skip_validation_arg =
  let doc = "Check criteria even when the history violates the model." in
  Arg.(value & flag & info [ "force" ] ~doc)

let dot_arg =
  let doc =
    "Write Graphviz renderings ($(docv)-forest.dot with the observed order \
     overlaid, and $(docv)-invocations.dot) of the history.  Single-FILE \
     runs only."
  in
  Arg.(value & opt (some string) None & info [ "dot" ] ~docv:"PREFIX" ~doc)

let monitor_arg =
  let doc =
    "Streaming mode: certify the history's committed prefixes incrementally \
     (one monitor append per root transaction, in id order) and report the \
     first violating prefix index instead of one verdict for the whole \
     history.  Comp-C only; incompatible with $(b,--stats), $(b,--dot) and \
     other criteria.  With FILE $(b,-) the description is certified as it \
     arrives on stdin, one append per streamed root, so live streams can \
     be piped in.  With $(b,--explain) (and $(b,--format)/$(b,--shrink)) \
     the full forensic evidence report is emitted for the first violating \
     prefix."
  in
  Arg.(value & flag & info [ "monitor" ] ~doc)

let window_arg =
  let doc =
    "Monitor mode: bounded-memory streaming.  Once the window holds \
     $(docv) nodes after an accepted append, the certified prefix is \
     folded into a compact summary behind a dense tail of the newest \
     nodes (half the window where the stream allows) and its dense \
     per-node state released, so the session's resident memory is \
     proportional to the window, not the stream, until an append \
     reaches into the folded prefix and restores it up to the next \
     fold.  Verdicts are unchanged."
  in
  Arg.(value & opt (some int) None & info [ "window" ] ~docv:"NODES" ~doc)

let fail_fast_arg =
  let doc =
    "Batch mode: stop dispatching remaining FILEs after the first wave of \
     $(b,--jobs) files containing a reject or error (per-file output stays \
     buffered and in argument order within a wave, so up to jobs-1 files \
     after the failing one may still be reported).  Exit codes are \
     unchanged; skipped files are announced on stderr."
  in
  Arg.(value & flag & info [ "fail-fast" ] ~doc)

let metrics_out_arg =
  let doc =
    "Write the run's metrics snapshot to $(docv): checker counters and \
     latency histograms, the labeled per-path append series and live \
     engine gauges in monitor mode, and the merged per-file registries \
     (deterministic, in argument order) in batch mode."
  in
  Arg.(value & opt (some string) None & info [ "metrics" ] ~docv:"FILE" ~doc)

let trace_out_arg =
  let doc =
    "Monitor mode: write a Chrome trace_event JSON of the run's span trees \
     to $(docv) — one trace per monitor append, each containing the \
     engine's append span with its certification path label \
     (initial/fast/delta/kernel/full) and node/cluster counts.  Load in \
     Perfetto."
  in
  Arg.(value & opt (some string) None & info [ "trace" ] ~docv:"FILE" ~doc)

let coverage_out_arg =
  let doc =
    "Write the run's path-coverage document (coverage/1 JSON) to $(docv): \
     every engine, monitor and reduction decision counter under its \
     canonical name, with a stable key set — untaken paths appear with \
     count 0, so diffing two documents shows exactly which decision paths \
     a workload exercised."
  in
  Arg.(value & opt (some string) None & info [ "coverage" ] ~docv:"FILE" ~doc)

let progress_arg =
  let doc =
    "Live single-line progress on stderr (files done and rate in batch \
     mode; prefixes done, rate and p99 append latency in monitor mode).  \
     Default: on exactly when stderr is a terminal; $(b,--no-progress) \
     forces it off."
  in
  let off = "Disable the live progress line." in
  Arg.(
    value
    & vflag None
        [
          (Some true, info [ "progress" ] ~doc);
          (Some false, info [ "no-progress" ] ~doc:off);
        ])

let jobs_arg =
  let doc =
    "Worker domains for batch checking several FILEs (default: $(b,REPRO_JOBS) \
     from the environment, else the machine's recommended domain count; 1 \
     checks sequentially).  Verdicts and exit code are identical whatever \
     the value."
  in
  Arg.(value & opt (some int) None & info [ "j"; "jobs" ] ~docv:"N" ~doc)

let cmd =
  let doc = "decide composite correctness (Comp-C) and related criteria" in
  let man =
    [
      `S Manpage.s_description;
      `P
        "Reads composite executions in the history description language and \
         decides the correctness criteria of Alonso, Fe\xc3\x9fler, Pardon and \
         Schek, \"Correctness in General Configurations of Transactional \
         Components\" (PODS 1999): the general criterion Comp-C via \
         level-by-level reduction, plus the specialised and classical \
         criteria it subsumes.";
      `S Manpage.s_examples;
      `Pre
        "  compcheck history.ct --criterion all\n\
        \  compgen --shape stack | compcheck - --explain\n\
        \  compcheck history.ct --explain --shrink --format json\n\
        \  compcheck history.ct --format dot > forensics.dot\n\
        \  compcheck --jobs 4 histories/*.ct\n\
        \  compcheck --monitor --explain history.ct\n\
        \  compcheck --fail-fast --jobs 4 histories/*.ct";
    ]
  in
  Cmd.v
    (Cmd.info "compcheck" ~version:Cli_common.version ~doc ~man)
    Term.(
      const run $ paths_arg $ criterion_arg $ explain_arg $ format_arg
      $ shrink_arg $ stats_arg $ skip_validation_arg $ dot_arg $ jobs_arg
      $ monitor_arg $ window_arg $ fail_fast_arg $ metrics_out_arg
      $ Cli_common.metrics_format_arg $ trace_out_arg $ coverage_out_arg
      $ progress_arg)

let () = exit (Cmd.eval' cmd)
