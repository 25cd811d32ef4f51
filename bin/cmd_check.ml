(* The check subcommand: one file's complete batch run.  A single
   {!Repro_core.Engine} session is constructed per history and serves
   every consumer of the analysis — the criterion report (the Comp-C
   column reads the session verdict), the --dot renderings (the session's
   observed order), the --explain evidence report (the session's caches)
   and the --stats reduction profile (the session's telemetry sink) — so
   the closure and the conflict memo are computed exactly once whatever
   combination of flags is given.

   [brief] is batch mode: the verdict is a single [path: ...] line
   (configuration summary suppressed) so a many-file run reads as a table.
   All output goes through [ppf]/[eppf] so batch mode can buffer it per
   file and print blocks in argument order whatever the domain-pool
   interleaving was. *)
open Repro_model

(* --stats: the per-level reduction profile, printed from the spans and
   metrics the session's own analysis recorded — not a re-run. *)
let print_stats ppf spans metrics =
  let module Span = Repro_obs.Span in
  let module Metrics = Repro_obs.Metrics in
  let label (v : Span.view) k = Repro_obs.Labels.find k v.Span.v_labels in
  let count v k = Option.value ~default:"-" (label v k) in
  let int v k = Option.fold ~none:0 ~some:int_of_string (label v k) in
  let gauge name =
    match Metrics.gauge_value metrics name with
    | Some v -> int_of_float v
    | None -> 0
  in
  Fmt.pf ppf "--- Comp-C reduction profile ---@.";
  (match Metrics.summary metrics "compc.observed_wall_s" with
  | Some s ->
    Fmt.pf ppf
      "observed order: %d base pairs -> %d pairs after closure, %d rounds, %.3f ms@."
      (gauge "compc.obs_base_pairs") (gauge "compc.obs_pairs")
      (gauge "compc.obs_rounds") (s.Metrics.sum *. 1e3)
  | None -> ());
  List.iter
    (fun (v : Span.view) ->
      match v.Span.v_name with
      | "front_init" -> Fmt.pf ppf "level-0 front: %d members@." (int v "members")
      | "reduction_step" ->
        Fmt.pf ppf "step %d: %d -> %s members, %s clusters, %.3f ms [%s]@."
          (int v "level") (int v "prev_front") (count v "front")
          (count v "clusters")
          ((v.Span.v_t1 -. v.Span.v_t0) *. 1e3)
          (Option.value ~default:"?" (label v "outcome"))
      | "failure" ->
        Fmt.pf ppf "failure: %s@." (Option.value ~default:"?" (label v "kind"))
      | _ -> ())
    (Span.spans spans);
  match Metrics.summary metrics "compc.check_wall_s" with
  | Some s ->
    Fmt.pf ppf "total: %.3f ms, verdict %s@." (s.Metrics.sum *. 1e3)
      (if Metrics.counter_value metrics "compc.accept" > 0 then "accept"
       else "reject")
  | None -> ()

(* --stats enrichment: what the session is holding after the analysis —
   closure/memo sizing, reachable heap, allocation — as the engine-stats/1
   JSON document (one line, greppable and diffable). *)
let print_introspection ppf session =
  Fmt.pf ppf "--- engine state (engine-stats/1) ---@.%s@."
    (Repro_obs.Json.to_string (Repro_core.Engine.introspect session))

(* --stats: conflict-spec lints.  A valid history can still feed its spec
   operation names the spec does not recognize, silently landing on a
   pessimistic or commuting default; off the certification path, so only
   computed when stats were asked for. *)
let print_lint ppf h =
  match Validate.lint h with
  | [] -> ()
  | ws ->
    Fmt.pf ppf "--- conflict-spec lint ---@.";
    List.iter (fun w -> Fmt.pf ppf "warning: %a@." Validate.pp_warning w) ws

let run ?(ppf = Fmt.stdout) ?(eppf = Fmt.stderr) ?(obs = Repro_obs.Sink.null)
    ~brief criterion explain format shrink stats skip_validation dot path =
  (* A forensic request is an explain request: --shrink and the machine
     formats only make sense on the evidence report. *)
  let explain = explain || shrink || format <> `Text in
  (* With a machine format the human verdict lines move to stderr so
     stdout is exactly one JSON document / DOT graph, pipeable as is. *)
  let hpf = if format = `Text then ppf else eppf in
  Cli_common.gate ~ppf ~eppf ~brief ~skip_validation path
    (Cli_common.read_history path)
  @@ fun h ->
  (* A local collector exactly when --stats reads the profile back. *)
  let spans = if stats then Repro_obs.Span.create () else Repro_obs.Span.null in
  (* The caller's registry/recorder (per-item private ones in batch mode)
     when enabled; else a local registry exactly when --stats must read
     one back. *)
  let metrics =
    if Repro_obs.Metrics.enabled obs.Repro_obs.Sink.metrics then
      obs.Repro_obs.Sink.metrics
    else if stats then Repro_obs.Metrics.create ()
    else Repro_obs.Metrics.null
  in
  let recorder = obs.Repro_obs.Sink.recorder in
  let session =
    Repro_core.Engine.of_history
      ~obs:(Repro_obs.Sink.v ~metrics ~recorder ~spans ())
      h
  in
  (match dot with
  | Some prefix ->
    let rel = Option.get (Repro_core.Engine.relations session) in
    let write name text =
      Cli_common.write_file (prefix ^ name) text;
      Fmt.pf hpf "wrote %s%s@." prefix name
    in
    write "-forest.dot"
      (Repro_histlang.Dot.forest ~obs:rel.Repro_core.Observed.obs h);
    write "-invocations.dot" (Repro_histlang.Dot.invocation_graph h)
  | None -> ());
  let compc = Repro_core.Engine.accepted session in
  (* The classic criteria run only for a query that names them. *)
  let report = lazy (Repro_criteria.Classic.accepted_by ~compc h) in
  let shape = Repro_criteria.Shapes.classify h in
  if not brief then
    Fmt.pf hpf
      "configuration: %a, order %d, %d schedules, %d transactions, %d leaves@."
      Repro_criteria.Shapes.pp shape (History.order h)
      (History.n_schedules h)
      (List.length (History.roots h) + List.length (History.internal_nodes h))
      (List.length (History.leaves h));
  let verdict v = if v then "accept" else "reject" in
  match criterion with
  | "all" | "ALL" | "All" ->
    let report = Lazy.force report in
    if brief then
      Fmt.pf ppf "%s: %a@." path
        Fmt.(
          list ~sep:(any "  ") (fun ppf (n, v) ->
              Fmt.pf ppf "%s=%s" n (verdict v)))
        report
    else
      List.iter
        (fun (name, v) -> Fmt.pf hpf "%-8s %s@." name (verdict v))
        report;
    if explain then Cmd_explain.report ppf format shrink session;
    if stats then begin
      print_stats hpf spans metrics;
      print_introspection hpf session;
      print_lint hpf h
    end;
    if compc then 0 else 1
  | name -> (
    (* case-insensitive convenience: comp-c, scc, ... all work *)
    let lc = String.lowercase_ascii name in
    match
      if lc = "comp-c" then Some ("Comp-C", compc)
      else
        List.find_opt
          (fun (n, _) -> String.lowercase_ascii n = lc)
          (Lazy.force report)
    with
    | None ->
      Fmt.pf eppf
        "compcheck: criterion %S does not apply to this configuration \
         (available: %a)@."
        name
        Fmt.(list ~sep:comma string)
        (List.map fst (Lazy.force report));
      2
    | Some (name, v) ->
      if brief then Fmt.pf ppf "%s: %s: %s@." path name (verdict v)
      else Fmt.pf hpf "%s: %s@." name (verdict v);
      if explain && name = "Comp-C" then
        Cmd_explain.report ppf format shrink session;
      if stats then begin
        print_stats hpf spans metrics;
        print_introspection hpf session;
        print_lint hpf h
      end;
      if v then 0 else 1)
