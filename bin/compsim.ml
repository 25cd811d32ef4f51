(* compsim: run the composite-system runtime on a standard workload under a
   chosen concurrency-control protocol, report performance statistics, and
   optionally check or dump the emitted history. *)
open Cmdliner
open Repro_runtime

let protocol_of_string = function
  | "serial" -> Ok Sim.Serial
  | "closed" -> Ok (Sim.Locking { closed = true })
  | "open" -> Ok (Sim.Locking { closed = false })
  | "certify" -> Ok Sim.Certify
  | other -> Error other

let write_json path json = Cli_common.write_json ~tool:"compsim" path json

let run workload protocol_name clients txs seed check dump evidence_out
    trace_out metrics_out metrics_format flight_out =
  match (Workloads.find workload, protocol_of_string protocol_name) with
  | None, _ ->
    Fmt.epr "compsim: unknown workload %S (available: %a)@." workload
      Fmt.(list ~sep:comma string)
      (List.map (fun w -> w.Workloads.name) (Workloads.all ()));
    2
  | _, Error other ->
    Fmt.epr "compsim: unknown protocol %S (serial|closed|open|certify)@." other;
    2
  | Some w, Ok protocol ->
    let params =
      {
        Sim.default_params with
        Sim.protocol;
        clients;
        txs_per_client = txs;
        seed;
        lock_timeout = 6.0;
        backoff = 2.0;
      }
    in
    let spans =
      if trace_out = None then Repro_obs.Span.null else Repro_obs.Span.create ()
    in
    let metrics =
      if metrics_out = None then Repro_obs.Metrics.null
      else Repro_obs.Metrics.create ()
    in
    let recorder =
      if flight_out = None then Repro_obs.Recorder.null
      else Repro_obs.Recorder.create ()
    in
    let stats =
      Sim.run ~spans ~metrics ~recorder params w.Workloads.topology
        ~gen:w.Workloads.gen
    in
    Fmt.pr "workload=%s protocol=%s clients=%d txs/client=%d seed=%d@." workload protocol_name
      clients txs seed;
    Fmt.pr
      "committed=%d aborts=%d given-up=%d lock-waits=%d makespan=%.2f mean-latency=%.2f throughput=%.3f@."
      stats.Sim.committed stats.Sim.aborts stats.Sim.given_up stats.Sim.lock_waits
      stats.Sim.makespan stats.Sim.mean_latency
      (if stats.Sim.makespan > 0.0 then
         float_of_int stats.Sim.committed /. stats.Sim.makespan
       else 0.0);
    (match trace_out with
    | Some path ->
      write_json path (Repro_obs.Span.to_chrome ~process:"compsim" spans);
      Fmt.pr "trace written to %s (%d spans; open in Perfetto / chrome://tracing)@."
        path (Repro_obs.Span.length spans)
    | None -> ());
    (match metrics_out with
    | Some path ->
      Cli_common.write_metrics ~tool:"compsim" ~format:metrics_format path
        metrics;
      Fmt.pr "metrics snapshot written to %s@." path
    | None -> ());
    (match flight_out with
    | Some path ->
      write_json path (Repro_obs.Recorder.to_json recorder);
      Fmt.pr "flight recorder written to %s (%d of %d events retained)@." path
        (Repro_obs.Recorder.length recorder)
        (Repro_obs.Recorder.total recorder)
    | None -> ());
    (match dump with
    | Some path ->
      let oc = open_out path in
      output_string oc (Repro_histlang.Syntax.to_string stats.Sim.history);
      close_out oc;
      Fmt.pr "history written to %s@." path
    | None -> ());
    if check then begin
      let errs = Repro_model.Validate.check stats.Sim.history in
      List.iter
        (fun e -> Fmt.pr "VALIDATION: %a@." (Repro_model.Validate.pp_error stats.Sim.history) e)
        errs;
      let session = Repro_core.Engine.of_history stats.Sim.history in
      let correct = Repro_core.Engine.accepted session in
      Fmt.pr "model-valid=%b comp-c=%b@." (errs = []) correct;
      (match evidence_out with
      | Some path when errs = [] && not correct ->
        (* The forensic dump of the rejection: witness cycle with per-edge
           observed-order provenance and a shrunken reproducer, assembled
           from the session that decided the verdict. *)
        let ev = Repro_forensics.Evidence.of_session ~shrink:true session in
        write_json path (Repro_forensics.Evidence.to_json ev);
        Fmt.pr "evidence written to %s@." path
      | Some _ ->
        Fmt.pr "evidence skipped (history %s)@."
          (if errs <> [] then "violates the model" else "accepted")
      | None -> ());
      if errs <> [] || not correct then 1 else 0
    end
    else 0

let workload_arg =
  let doc = "Workload: banking, layered, or federated." in
  Arg.(value & opt string "banking" & info [ "w"; "workload" ] ~docv:"NAME" ~doc)

let protocol_arg =
  let doc =
    "Concurrency control: $(b,serial) (one transaction at a time per \
     component), $(b,closed) (semantic 2PL, locks retained to root commit), \
     $(b,open) (semantic 2PL, locks released at subtransaction commit), or \
     $(b,certify) (lock-free, Comp-C-validated at commit)."
  in
  Arg.(value & opt string "closed" & info [ "p"; "protocol" ] ~docv:"NAME" ~doc)

let clients_arg = Arg.(value & opt int 6 & info [ "clients" ] ~docv:"N" ~doc:"Concurrent client sessions.")

let txs_arg = Arg.(value & opt int 8 & info [ "txs" ] ~docv:"N" ~doc:"Transactions per client.")

let seed_arg = Arg.(value & opt int 1 & info [ "seed" ] ~docv:"N" ~doc:"Random seed.")

let check_arg =
  let doc = "Validate the emitted history and decide Comp-C (exit 1 when incorrect)." in
  Arg.(value & flag & info [ "check" ] ~doc)

let dump_arg =
  let doc = "Write the emitted history to $(docv) (history description language)." in
  Arg.(value & opt (some string) None & info [ "dump" ] ~docv:"FILE" ~doc)

let evidence_arg =
  let doc =
    "With $(b,--check), on a Comp-C rejection write the evidence/1 JSON \
     report (witness cycle, per-edge observed-order provenance, shrunken \
     reproducing history) to $(docv)."
  in
  Arg.(value & opt (some string) None & info [ "evidence" ] ~docv:"FILE" ~doc)

let trace_arg =
  let doc =
    "Record every scheduler event (dispatches, lock waits and grants, \
     aborts, backoffs, retries, commits, certification checks) as spans on \
     simulated time, one track per client, and write a Chrome trace-event \
     JSON file to $(docv) — load it in Perfetto or chrome://tracing."
  in
  Arg.(value & opt (some string) None & info [ "trace" ] ~docv:"FILE" ~doc)

let metrics_arg =
  let doc =
    "Write a metrics snapshot (counters, gauges, latency/lock-time \
     histograms with p50/p90/p99) to $(docv); see $(b,--metrics-format)."
  in
  Arg.(value & opt (some string) None & info [ "metrics" ] ~docv:"FILE" ~doc)

let flight_arg =
  let doc =
    "Write the scheduler's flight-recorder tail to $(docv): the last \
     commits, retries, aborts, give-ups and certify rejections, each \
     labeled with client/seq/attempt and stamped with the simulated clock."
  in
  Arg.(value & opt (some string) None & info [ "flight" ] ~docv:"FILE" ~doc)

let cmd =
  let doc = "simulate composite transactions over a component topology" in
  let man =
    [
      `S Manpage.s_description;
      `P
        "Discrete-event execution of composite transactions over autonomous \
         transactional components, with semantic locking under open or closed \
         nesting.  The emitted history can be fed back to the Comp-C checker: \
         try $(b,compsim -w federated -p open --check) to watch open nesting \
         across autonomous front-ends violate composite correctness.";
    ]
  in
  Cmd.v
    (Cmd.info "compsim" ~version:Cli_common.version ~doc ~man)
    Term.(
      const run $ workload_arg $ protocol_arg $ clients_arg $ txs_arg $ seed_arg
      $ check_arg $ dump_arg $ evidence_arg $ trace_arg $ metrics_arg
      $ Cli_common.metrics_format_arg $ flight_arg)

let () = exit (Cmd.eval' cmd)
