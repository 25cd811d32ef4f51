(* Plumbing shared by the compcheck/compgen/compsim command-line tools:
   the release version, history input (file or stdin) with parse-error
   mapping, the model-validation gate with its exit-code policy, and the
   output-file helpers.  Every subcommand module builds on these so the
   three binaries agree on behaviour at the edges. *)

module Syntax = Repro_histlang.Syntax

let version = "1.5.0"

(* An ingestion failure as the one-line message every reader prints, as
   [compserve] answers it: a refused extension keeps History.extend's own
   [not an extension: ...] wording.  [line] is the stream line before a
   chunk's first, so a chunk's parse error names the stream's line. *)
let ingest_error ?(line = 0) = function
  | Syntax.Parse_error e ->
    Fmt.str "parse error: %a" Syntax.pp_error { e with line = e.line + line }
  | Invalid_argument msg when String.starts_with ~prefix:"not an extension" msg -> msg
  | Invalid_argument msg -> "invalid history: " ^ msg
  | Sys_error msg -> msg
  | e -> raise e

let read_history path =
  try
    if path = "-" then begin
      (* [Buffer.add_channel] raises [End_of_file] on a short read and
         discards the partial chunk, so read through [input], which returns
         what is available and 0 only at end of file. *)
      let buf = Buffer.create 4096 in
      let chunk = Bytes.create 4096 in
      let rec slurp () =
        let n = input stdin chunk 0 (Bytes.length chunk) in
        if n > 0 then begin
          Buffer.add_subbytes buf chunk 0 n;
          slurp ()
        end
      in
      slurp ();
      Ok (Syntax.parse (Buffer.contents buf))
    end
    else Ok (Syntax.parse_file path)
  with (Syntax.Parse_error _ | Invalid_argument _ | Sys_error _) as e ->
    Error (ingest_error e)

(* A read or ingestion failure: exit 2, reported on [ppf] as a single
   [path: error: ...] line in batch mode ([brief]), else on [eppf]. *)
let error ?(ppf = Fmt.stdout) ?(eppf = Fmt.stderr) ~brief path msg =
  if brief then Fmt.pf ppf "%s: error: %s@." path msg
  else Fmt.pf eppf "compcheck: %s@." msg;
  2

(* The one gate between reading a history and certifying it: validate
   [read]'s history against the composite-system model, and run [k] on
   it.  Exit-code policy: 2 on a read/parse error and on model violations
   unless [skip_validation]; in batch mode the violation count is one
   [path: invalid: ...] line on [ppf].  The violation listing itself
   always goes to [eppf]. *)
let gate ?(ppf = Fmt.stdout) ?(eppf = Fmt.stderr) ~brief ~skip_validation path
    read k =
  match read with
  | Error msg -> error ~ppf ~eppf ~brief path msg
  | Ok h ->
    let validation = Repro_model.Validate.check h in
    if validation <> [] then begin
      if brief && not skip_validation then
        Fmt.pf ppf "%s: invalid: %d model violation%s@." path
          (List.length validation)
          (if List.length validation = 1 then "" else "s")
      else begin
        Fmt.pf eppf "%s violates the composite-system model (Defs. 3-4):@."
          (if path = "-" then "history" else path);
        List.iter
          (fun e -> Fmt.pf eppf "  %a@." (Repro_model.Validate.pp_error h) e)
          validation
      end
    end;
    if validation <> [] && not skip_validation then 2 else k h

let write_file path text =
  let oc = open_out path in
  output_string oc text;
  close_out oc

(* JSON dump with the tool-prefixed error message and exit 2 on I/O
   trouble, as the simulator's report writers expect. *)
let write_json ~tool path json =
  match open_out path with
  | exception Sys_error msg ->
    Fmt.epr "%s: %s@." tool msg;
    exit 2
  | oc ->
    Repro_obs.Json.to_channel oc json;
    output_char oc '\n';
    close_out oc

let write_text ~tool path text =
  match open_out path with
  | exception Sys_error msg ->
    Fmt.epr "%s: %s@." tool msg;
    exit 2
  | oc ->
    output_string oc text;
    close_out oc

(* One metrics snapshot, either machine format: the structured JSON dump
   or the Prometheus text exposition a scraper ingests directly. *)
let write_metrics ~tool ~format path metrics =
  match format with
  | `Json -> write_json ~tool path (Repro_obs.Metrics.to_json metrics)
  | `Prom -> write_text ~tool path (Repro_obs.Metrics.to_prometheus metrics)

let metrics_format_arg =
  let doc =
    "Format of the $(b,--metrics) snapshot: $(b,json) (structured dump, \
     default) or $(b,prom) (Prometheus text exposition 0.0.4, ready for a \
     scrape endpoint or textfile collector).  Ignored without $(b,--metrics)."
  in
  Cmdliner.Arg.(
    value
    & opt (enum [ ("json", `Json); ("prom", `Prom) ]) `Json
    & info [ "metrics-format" ] ~docv:"FMT" ~doc)

(* A single-line stderr progress indicator for long batch/monitor runs:
   carriage-return + erase-to-EOL rewrites in place, nothing when
   disabled.  [update] may be called from pool worker domains, so the
   line is written under a mutex; [finish] erases the line so the final
   report starts on a clean row. *)
module Progress = struct
  type t = { mutable active : bool; mu : Mutex.t }

  let null = { active = false; mu = Mutex.create () }

  let create enabled =
    if enabled then { active = true; mu = Mutex.create () } else null

  let enabled t = t.active

  (* Auto-detection: live rewrites only make sense on an interactive
     stderr; piped/redirected runs stay clean. *)
  let want = function
    | Some b -> b
    | None -> ( try Unix.isatty Unix.stderr with Unix.Unix_error _ -> false)

  let update t line =
    if t.active then begin
      Mutex.lock t.mu;
      Printf.eprintf "\r\027[K%s%!" line;
      Mutex.unlock t.mu
    end

  let finish t =
    if t.active then begin
      Mutex.lock t.mu;
      Printf.eprintf "\r\027[K%!";
      t.active <- false;
      Mutex.unlock t.mu
    end
end
