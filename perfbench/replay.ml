(* The in-process half of the traced run: feed a workload's inputs through
   the public entry point of each layer its user path calls, one call at a
   time, and record every call as a span of this file's own collector,
   with the minor words it allocated and the major collections it ran.
   Nothing is instrumented inside the program; a layer's time is the wall
   time of calls into it, taken from outside.

   A few calls are not ones the program makes, but split one of its costs
   into parts: [history.rebuild] (the History build and [seal] of a parse,
   without the lexing), [shards.handoff] (one shard round trip), and
   [observed.compute] + [reduction.reduce] (the two halves of
   [Engine.analyze]).  They are left out of the [gc.*] figures. *)

open Repro_model
module Engine = Repro_core.Engine
module Span = Repro_obs.Span
module Clock = Repro_obs.Clock
module Labels = Repro_obs.Labels
module Json = Repro_obs.Json
module Server = Repro_runtime.Server
module Wire = Server.Wire
module Syntax = Repro_histlang.Syntax

let spans = Span.create ()

(* Per layer: minor words allocated and major collections run. *)
let gcs : (string, float ref * int ref) Hashtbl.t = Hashtbl.create 16

let deep_label = Labels.v [ ("deep", "1") ]

let majors () = (Gc.quick_stat ()).Gc.major_collections

(* One call into a layer, as a span of the current op's trace. *)
let layer ?(deep = false) ~trace name f =
  let m0 = majors () in
  let w0 = Gc.minor_words () in
  let t0 = Clock.now_wall () in
  let r = f () in
  let t1 = Clock.now_wall () in
  let w = Gc.minor_words () -. w0 in
  let m = majors () - m0 in
  ignore
    (Span.emit spans ~trace ~t0 ~t1
       ~labels:(if deep then deep_label else Labels.empty)
       name);
  (match Hashtbl.find_opt gcs name with
  | Some (ws, ms) ->
    ws := !ws +. w;
    ms := !ms + m
  | None -> Hashtbl.add gcs name (ref w, ref m));
  r

(* The layer calls the program itself makes on each path. *)
let program_calls =
  [
    "wire.decode"; "syntax.parse"; "engine.extend"; "wire.encode"; "validate.check";
    "engine.analyze"; "classic.accepted_by"; "shapes.classify";
  ]

(* Values recorded beside the spans: per-op counts and sizes. *)
let sums : (string, float ref * int ref) Hashtbl.t = Hashtbl.create 16

let note name v =
  match Hashtbl.find_opt sums name with
  | Some (s, n) ->
    s := !s +. v;
    incr n
  | None -> Hashtbl.add sums name (ref v, ref 1)

let mismatches = ref 0

let check (v : Engine.verdict) (e : Inputs.expect) =
  match (v, e) with
  | Engine.Accepted _, Inputs.Accept -> ()
  | Engine.Rejected f, Inputs.Reject kind
    when Repro_core.Reduction.failure_kind f = kind ->
    ()
  | _ -> incr mismatches

let response sid (v : Engine.verdict) =
  match v with
  | Engine.Accepted serial ->
    Wire.Verdict_r
      {
        stream = sid;
        accepted = true;
        detail = String.concat " " (List.map string_of_int serial);
      }
  | Engine.Rejected f ->
    Wire.Verdict_r
      { stream = sid; accepted = false; detail = Repro_core.Reduction.failure_kind f }

let rebuild ~trace h =
  ignore
    (layer ~trace "history.rebuild" (fun () ->
         History.prefix_by_roots h (List.length (History.roots h))))

(* The batch pipeline [compcheck FILE] runs, layer by layer, then the
   split calls.  Returns the verdict and the in-process time of the calls
   [compcheck] itself makes. *)
let batch ~deep ~trace text =
  let t0 = Clock.now_wall () in
  let h = layer ~deep ~trace "syntax.parse" (fun () -> Syntax.parse text) in
  let _ = layer ~trace "validate.check" (fun () -> Validate.check h) in
  let session = layer ~trace "engine.analyze" (fun () -> Engine.of_history h) in
  let compc = Engine.accepted session in
  let _ =
    layer ~trace "classic.accepted_by" (fun () ->
        Repro_criteria.Classic.accepted_by ~compc h)
  in
  let _ = layer ~trace "shapes.classify" (fun () -> Repro_criteria.Shapes.classify h) in
  let inproc = Clock.now_wall () -. t0 in
  rebuild ~trace h;
  let rel = layer ~trace "observed.compute" (fun () -> Repro_core.Observed.compute h) in
  let cert =
    layer ~trace "reduction.reduce" (fun () -> Repro_core.Reduction.reduce ~rel h)
  in
  note "syntax.bytes_parsed" (float_of_int (String.length text));
  note "syntax.bytes_sent" (float_of_int (String.length text));
  note "history.order_pairs" (float_of_int (Inputs.order_pairs h));
  note "observed.pairs" (float_of_int (Repro_order.Rel.cardinal rel.Repro_core.Observed.obs));
  note "reduction.steps" (float_of_int (List.length cert.Repro_core.Reduction.steps));
  (Option.get (Engine.verdict session), inproc)

(* One stream, append by append, as the daemon handles it: request decode,
   accumulated-text parse, engine append, response encode; then the split
   calls. *)
let stream ~server ~next_trace (s : Inputs.stream) =
  let eng = Engine.create ?window:s.Inputs.window () in
  let text = Buffer.create 4096 in
  let n = Array.length s.Inputs.appends in
  Array.iteri
    (fun i (a : Inputs.append) ->
      let trace = next_trace () in
      let deep = 10 * (i + 1) >= 9 * n in
      let frame =
        Wire.encode_request (Wire.Append { stream = "s"; body = a.Inputs.body; ctx = None })
      in
      ignore (layer ~trace "wire.decode" (fun () -> Wire.decode_request frame ~pos:0));
      Buffer.add_string text a.Inputs.body;
      let h = layer ~deep ~trace "syntax.parse" (fun () -> Syntax.parse (Buffer.contents text)) in
      let v = layer ~deep ~trace "engine.extend" (fun () -> Engine.extend eng h) in
      check v a.Inputs.expect;
      let enc = layer ~trace "wire.encode" (fun () -> Wire.encode_response (response "s" v)) in
      rebuild ~trace h;
      ignore
        (layer ~trace "shards.handoff" (fun () -> Server.request server (Wire.Verdict "probe")));
      note "wire.bytes_per_op" (float_of_int (String.length frame + String.length enc));
      note "syntax.bytes_parsed" (float_of_int (Buffer.length text));
      note "syntax.bytes_sent" (float_of_int (String.length a.Inputs.body));
      note "history.order_pairs" (float_of_int (Inputs.order_pairs h)))
    s.Inputs.appends;
  note "engine.resident_words" (float_of_int (Engine.resident_estimate_words eng))

(* ------------------------------------------------------------------ *)
(* Summaries                                                           *)
(* ------------------------------------------------------------------ *)

let durations ?(deep_only = false) name =
  List.filter_map
    (fun (v : Span.view) ->
      if
        v.Span.v_name = name
        && ((not deep_only) || Labels.find "deep" v.Span.v_labels = Some "1")
      then Some (v.Span.v_t1 -. v.Span.v_t0)
      else None)
    (Span.spans spans)

let mean = function
  | [] -> 0.0
  | l -> List.fold_left ( +. ) 0.0 l /. float_of_int (List.length l)

let sum_of name =
  match Hashtbl.find_opt sums name with Some (s, _) -> !s | None -> 0.0

let mean_of name =
  match Hashtbl.find_opt sums name with
  | Some (s, n) -> !s /. float_of_int !n
  | None -> 0.0

let words_per_call name =
  match (Hashtbl.find_opt gcs name, durations name) with
  | Some (w, _), (_ :: _ as d) -> !w /. float_of_int (List.length d)
  | _ -> 0.0

let program_gc () =
  List.fold_left
    (fun (w, m) name ->
      match Hashtbl.find_opt gcs name with
      | Some (ws, ms) -> (w +. !ws, m + !ms)
      | None -> (w, m))
    (0.0, 0) program_calls

(* ------------------------------------------------------------------ *)
(* Entry point                                                         *)
(* ------------------------------------------------------------------ *)

(* Replays the workload on its own user path: every corpus file on
   [check-files]; on a serve workload, the first [streams] streams (the
   ones the daemon phase started), starting no stream after [budget]
   seconds.  Prints one JSON object with the metrics of the layers on
   that path. *)
let run ~workload ~seed ~streams:max_streams ~budget =
  let inputs = Inputs.generate ~workload ~seed in
  let trace_ctr = ref 0 in
  let next_trace () =
    incr trace_ctr;
    !trace_ctr
  in
  let ops = ref 0 in
  let ms name = 1e3 *. mean (durations name) in
  let us name = 1e6 *. mean (durations name) in
  let shared () =
    let minor, major = program_gc () in
    let ops = float_of_int (max 1 !ops) in
    [
      ("syntax.parse_ms", ms "syntax.parse");
      ("syntax.parse_deep_ms", 1e3 *. mean (durations ~deep_only:true "syntax.parse"));
      ("syntax.parse_minor_words", words_per_call "syntax.parse");
      ("history.rebuild_ms", ms "history.rebuild");
      ( "syntax.bytes_parsed_per_byte",
        sum_of "syntax.bytes_parsed" /. max 1.0 (sum_of "syntax.bytes_sent") );
      ("history.order_pairs", mean_of "history.order_pairs");
      ("gc.minor_words_per_op", minor /. ops);
      ("gc.major_per_kop", 1e3 *. float_of_int major /. ops);
    ]
  in
  let inproc, metrics =
    if workload = "check-files" then begin
      let files = inputs.Inputs.files in
      let by_size = List.sort compare (List.map (fun f -> String.length f.Inputs.text) files) in
      let deep_bytes = List.nth by_size (9 * List.length by_size / 10) in
      let inproc =
        List.map
          (fun (f : Inputs.file) ->
            let deep = String.length f.Inputs.text >= deep_bytes in
            let v, t = batch ~deep ~trace:(next_trace ()) f.Inputs.text in
            check v f.Inputs.verdict;
            incr ops;
            (f.Inputs.name, Json.Float (t *. 1e3)))
          files
      in
      ( inproc,
        shared ()
        @ [
            ("engine.analyze_ms", ms "engine.analyze");
            ("observed.compute_ms", ms "observed.compute");
            ("reduction.reduce_ms", ms "reduction.reduce");
            ("observed.pairs", mean_of "observed.pairs");
            ("reduction.steps", mean_of "reduction.steps");
            ("validate.check_ms", ms "validate.check");
            ("classic.accepted_by_ms", ms "classic.accepted_by");
            ("shapes.classify_ms", ms "shapes.classify");
          ] )
    end
    else begin
      let server = Server.create ~shards:1 () in
      ignore (Server.request server (Wire.Open { stream = "probe"; window = None }));
      let t_start = Clock.now_wall () in
      List.iteri
        (fun i s ->
          if i < max_streams && Clock.now_wall () -. t_start < budget then begin
            stream ~server ~next_trace s;
            ops := !ops + Array.length s.Inputs.appends
          end)
        inputs.Inputs.streams;
      Server.drain server;
      ( [],
        shared ()
        @ [
            ("wire.decode_us", us "wire.decode");
            ("wire.encode_us", us "wire.encode");
            ("wire.bytes_per_op", mean_of "wire.bytes_per_op");
            ("shards.handoff_us", us "shards.handoff");
            ("engine.extend_ms", ms "engine.extend");
            ("engine.extend_deep_ms", 1e3 *. mean (durations ~deep_only:true "engine.extend"));
            ("engine.extend_minor_words", words_per_call "engine.extend");
            ("engine.resident_words", mean_of "engine.resident_words");
          ] )
    end
  in
  print_endline
    (Json.to_string
       (Json.Obj
          [
            ("metrics", Json.Obj (List.map (fun (k, v) -> (k, Json.Float v)) metrics));
            ("mismatches", Json.Int !mismatches);
            ("ops", Json.Int !ops);
            ("inproc_ms", Json.Obj inproc);
          ]))
