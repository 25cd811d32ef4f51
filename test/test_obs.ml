(* Tests for the telemetry layer: JSON round-trips, histogram bucket math
   and percentile estimation, Chrome-trace well-formedness, null-sink
   no-ops, and consistency between a simulator run's metrics snapshot and
   its returned stats. *)
open Repro_obs

(* ------------------------------------------------------------------ *)
(* Json                                                                *)
(* ------------------------------------------------------------------ *)

let test_json_roundtrip () =
  let doc =
    Json.Obj
      [
        ("int", Json.Int 42);
        ("neg", Json.Int (-7));
        ("float", Json.Float 2.5);
        ("tiny", Json.Float 1.5e-6);
        ("string", Json.String "a\"b\\c\nd\te");
        ("ctrl", Json.String "\001\031");
        ("bool", Json.Bool true);
        ("null", Json.Null);
        ("list", Json.List [ Json.Int 1; Json.List []; Json.Obj [] ]);
      ]
  in
  let parsed = Json.of_string (Json.to_string doc) in
  Alcotest.(check bool) "round-trips" true (parsed = doc);
  (* floats that render without a fraction must still re-read as floats *)
  let j = Json.List [ Json.Float 5.0; Json.Float 0.0 ] in
  Alcotest.(check bool) "integral floats stay floats" true
    (Json.of_string (Json.to_string j) = j)

let test_json_parser_misc () =
  Alcotest.(check bool) "whitespace" true
    (Json.of_string "  { \"a\" : [ 1 , 2 ] }  " = Json.Obj [ ("a", Json.List [ Json.Int 1; Json.Int 2 ]) ]);
  Alcotest.(check bool) "exponent" true
    (Json.of_string "1e3" = Json.Float 1000.0);
  Alcotest.(check bool) "unicode escape" true
    (Json.of_string "\"\\u0041\"" = Json.String "A");
  Alcotest.(check bool) "non-finite prints null" true
    (Json.to_string (Json.Float Float.nan) = "null");
  List.iter
    (fun bad ->
      match Json.of_string bad with
      | exception Json.Parse_error _ -> ()
      | _ -> Alcotest.fail (Fmt.str "parser accepted %S" bad))
    [ "{"; "[1,]"; "\"unterminated"; "tru"; "1 2"; "" ]

(* ------------------------------------------------------------------ *)
(* Metrics                                                             *)
(* ------------------------------------------------------------------ *)

let buckets = [| 1.0; 2.0; 5.0; 10.0 |]

let test_metrics_counters_gauges () =
  let m = Metrics.create () in
  Metrics.incr m "c";
  Metrics.incr m ~by:4 "c";
  Metrics.set m "g" 1.5;
  Metrics.set m "g" 2.5;
  Alcotest.(check int) "counter" 5 (Metrics.counter_value m "c");
  Alcotest.(check int) "absent counter" 0 (Metrics.counter_value m "missing");
  Alcotest.(check (option (float 1e-9))) "gauge" (Some 2.5) (Metrics.gauge_value m "g")

let test_histogram_bucket_math () =
  let m = Metrics.create () in
  List.iter (Metrics.observe m ~buckets "h") [ 1.0; 2.0; 5.0; 10.0 ];
  let s = Option.get (Metrics.summary m "h") in
  Alcotest.(check int) "count" 4 s.Metrics.count;
  Alcotest.(check (float 1e-9)) "sum" 18.0 s.Metrics.sum;
  Alcotest.(check (float 1e-9)) "min" 1.0 s.Metrics.min;
  Alcotest.(check (float 1e-9)) "max" 10.0 s.Metrics.max;
  (* rank(0.5 * 4) = 2 falls at the top of the (1,2] bucket *)
  Alcotest.(check (float 1e-9)) "p50" 2.0 s.Metrics.p50;
  (* rank 4 is the last observation, in the (5,10] bucket *)
  Alcotest.(check (float 1e-9)) "p99" 10.0 s.Metrics.p99

let test_histogram_overflow_and_clamp () =
  let m = Metrics.create () in
  Metrics.observe m ~buckets "h" 100.0;
  (* the overflow bucket reports the exact observed maximum *)
  Alcotest.(check (option (float 1e-9))) "overflow p50" (Some 100.0)
    (Metrics.percentile m "h" 0.5);
  (* interpolation below the smallest observation clamps to the minimum *)
  let m2 = Metrics.create () in
  for _ = 1 to 10 do Metrics.observe m2 ~buckets "h" 1.0 done;
  Alcotest.(check (option (float 1e-9))) "clamped to min" (Some 1.0)
    (Metrics.percentile m2 "h" 0.5);
  Alcotest.(check (option (float 1e-9))) "empty histogram" None
    (Metrics.percentile m2 "missing" 0.5)

let test_metrics_json_snapshot () =
  let m = Metrics.create () in
  Metrics.incr m "a.count";
  Metrics.set m "a.gauge" 3.0;
  Metrics.observe m ~buckets "a.hist" 2.0;
  let j = Json.of_string (Json.to_string (Metrics.to_json m)) in
  Alcotest.(check bool) "counter in snapshot" true
    (Json.member "counters" j |> Option.get |> Json.member "a.count"
    = Some (Json.Int 1));
  let hist = Json.member "histograms" j |> Option.get |> Json.member "a.hist" in
  Alcotest.(check bool) "histogram has p50" true
    (Option.bind hist (Json.member "p50") <> None)

let test_null_metrics_noop () =
  let m = Metrics.null in
  Metrics.incr m "c";
  Metrics.set m "g" 1.0;
  Metrics.observe m "h" 1.0;
  Alcotest.(check bool) "disabled" false (Metrics.enabled m);
  Alcotest.(check int) "no counter" 0 (Metrics.counter_value m "c");
  Alcotest.(check bool) "no gauge" true (Metrics.gauge_value m "g" = None);
  Alcotest.(check bool) "no histogram" true (Metrics.summary m "h" = None)

(* ------------------------------------------------------------------ *)
(* Chrome export                                                       *)
(* ------------------------------------------------------------------ *)

let test_trace_chrome_json () =
  let t = Span.create () in
  let trace = Span.fresh_trace t in
  ignore
    (Span.emit t ~cat:"sim"
       ~labels:(Labels.v [ ("op", "withdraw \"x\"") ])
       ~trace ~t0:12.5e-6 ~t1:12.5e-6 "commit");
  ignore (Span.emit t ~cat:"sim" ~trace ~t0:10.0e-6 ~t1:12.5e-6 "lock_wait");
  let doc =
    Json.of_string (Json.to_string (Span.to_chrome ~process:"compsim" t))
  in
  let events = Json.to_list_exn (Option.get (Json.member "traceEvents" doc)) in
  (* 1 metadata + a b/e pair per span *)
  Alcotest.(check int) "traceEvents" 5 (List.length events);
  let phases = List.filter_map (fun e -> Json.member "ph" e) events in
  Alcotest.(check bool) "phases" true
    (phases = List.map (fun p -> Json.String p) [ "M"; "b"; "e"; "b"; "e" ]);
  let ts i = Json.member "ts" (List.nth events i) in
  Alcotest.(check bool) "begin ts in us" true (ts 3 = Some (Json.Float 10.0));
  Alcotest.(check bool) "end ts in us" true (ts 4 = Some (Json.Float 12.5));
  Alcotest.(check bool) "labels survive escaping" true
    (Option.bind (Json.member "args" (List.nth events 1)) (Json.member "op")
    = Some (Json.String "withdraw \"x\""));
  Alcotest.(check bool) "display unit" true
    (Json.member "displayTimeUnit" doc = Some (Json.String "ms"));
  (* every event must carry the mandatory Chrome fields, and every async
     event the trace id that groups it onto its track *)
  List.iter
    (fun e ->
      List.iter
        (fun k ->
          Alcotest.(check bool) (Fmt.str "field %s present" k) true
            (Json.member k e <> None))
        ([ "name"; "ph"; "pid" ]
        @ if Json.member "ph" e = Some (Json.String "M") then [] else [ "id" ]))
    events

let test_null_trace_noop () =
  let t = Span.null in
  let trace = Span.fresh_trace t in
  ignore (Span.emit t ~trace ~t0:1.0 ~t1:2.0 "y");
  Alcotest.(check bool) "disabled" false (Span.enabled t);
  Alcotest.(check int) "no spans" 0 (Span.length t);
  Alcotest.(check bool) "empty chrome document" true
    (Json.member "traceEvents" (Span.to_chrome t) = Some (Json.List []))

(* ------------------------------------------------------------------ *)
(* Simulator integration                                               *)
(* ------------------------------------------------------------------ *)

open Repro_runtime

let bank_topology =
  {
    Template.components =
      [| ("bank", Repro_model.Conflict.Always); ("store", Repro_model.Conflict.Rw) |];
  }

let bank_template rng ~client ~seq =
  ignore client;
  ignore seq;
  let open Repro_model in
  let a = Fmt.str "a%d" (Repro_workload.Prng.int rng 2) in
  Template.call ~component:0 (Label.v "txn")
    [
      Template.call ~component:1 ~sequential:true (Label.v ~args:[ a ] "deposit")
        [ Template.leaf (Label.read a); Template.leaf (Label.write a) ];
    ]

let run_closed ?spans ?metrics seed =
  let params =
    {
      Sim.default_params with
      Sim.protocol = Sim.Locking { closed = true };
      clients = 5;
      txs_per_client = 4;
      seed;
      lock_timeout = 4.0;
      backoff = 2.0;
    }
  in
  Sim.run ?spans ?metrics params bank_topology ~gen:bank_template

let test_sim_metrics_match_stats () =
  let metrics = Metrics.create () in
  let spans = Span.create () in
  let st = run_closed ~spans ~metrics 11 in
  Alcotest.(check int) "committed" st.Sim.committed
    (Metrics.counter_value metrics "sim.committed");
  Alcotest.(check int) "aborts" st.Sim.aborts
    (Metrics.counter_value metrics "sim.aborts");
  Alcotest.(check int) "given_up" st.Sim.given_up
    (Metrics.counter_value metrics "sim.given_up");
  Alcotest.(check int) "lock_waits" st.Sim.lock_waits
    (Metrics.counter_value metrics "sim.lock_waits");
  Alcotest.(check (option (float 1e-9))) "makespan gauge" (Some st.Sim.makespan)
    (Metrics.gauge_value metrics "sim.makespan");
  (* the commit spans agree with the counter, each client's events share
     one trace, and the Chrome document survives a JSON round-trip *)
  let views = Span.spans spans in
  let commits =
    List.length (List.filter (fun v -> v.Span.v_name = "commit") views)
  in
  Alcotest.(check int) "commit events" st.Sim.committed commits;
  Alcotest.(check int) "one trace per client" 5
    (List.length (List.sort_uniq compare (List.map (fun v -> v.Span.v_trace) views)));
  Alcotest.(check bool) "lock waits run forward on simulated time" true
    (List.for_all
       (fun v ->
         v.Span.v_name <> "lock_wait"
         || (v.Span.v_t1 >= v.Span.v_t0 && Labels.find "component" v.Span.v_labels <> None))
       views);
  let doc = Json.of_string (Json.to_string (Span.to_chrome spans)) in
  Alcotest.(check bool) "trace json parses" true
    (Json.member "traceEvents" doc <> None)

let test_sim_telemetry_is_transparent () =
  (* Attaching telemetry must not perturb the simulation: identical seed,
     identical outcome (telemetry never draws from the random stream). *)
  let plain = run_closed 13 in
  let st = run_closed ~spans:(Span.create ()) ~metrics:(Metrics.create ()) 13 in
  Alcotest.(check int) "committed" plain.Sim.committed st.Sim.committed;
  Alcotest.(check int) "aborts" plain.Sim.aborts st.Sim.aborts;
  Alcotest.(check bool) "makespan" true (plain.Sim.makespan = st.Sim.makespan)

let test_checker_telemetry () =
  let h = Repro_workload.Gen.stack (Repro_workload.Prng.create ~seed:6) ~levels:3 ~roots:2 in
  let metrics = Metrics.create () in
  let spans = Span.create () in
  let s = Repro_core.Engine.of_history ~obs:(Sink.v ~spans ~metrics ()) h in
  let profile = Span.spans spans in
  let steps = List.filter (fun v -> v.Span.v_name = "reduction_step") profile in
  Alcotest.(check int) "one span per attempted level"
    (Metrics.counter_value metrics "compc.steps")
    (List.length steps);
  Alcotest.(check bool) "the profile is one compc trace" true
    (List.for_all
       (fun v ->
         v.Span.v_cat = "compc"
         && v.Span.v_trace = (List.hd profile).Span.v_trace)
       profile);
  Alcotest.(check int) "accept+reject = checks"
    (Metrics.counter_value metrics "compc.checks")
    (Metrics.counter_value metrics "compc.accept"
    + Metrics.counter_value metrics "compc.reject");
  if not (Repro_core.Engine.accepted s) then
    Alcotest.(check bool) "failure classified" true
      (List.exists
         (fun k -> Metrics.counter_value metrics ("compc.failure." ^ k) > 0)
         [ "front_not_cc"; "no_calculation"; "intra_contradiction" ])

(* ------------------------------------------------------------------ *)
(* Labels, labeled metrics, Prometheus exposition, recorder            *)
(* ------------------------------------------------------------------ *)

let contains hay needle =
  let lh = String.length hay and ln = String.length needle in
  let rec go i = i + ln <= lh && (String.sub hay i ln = needle || go (i + 1)) in
  go 0

let test_labels_canonical () =
  let a = Labels.v [ ("b", "2"); ("a", "1") ] in
  let b = Labels.add "a" "1" (Labels.add "b" "2" Labels.empty) in
  Alcotest.(check bool) "insertion order irrelevant" true (Labels.equal a b);
  Alcotest.(check string) "sorted encode" {|{a="1",b="2"}|} (Labels.encode a);
  let c = Labels.add "a" "9" a in
  Alcotest.(check bool) "rebinding replaces" true (Labels.find "a" c = Some "9");
  Alcotest.(check int) "cardinal" 2 (Labels.cardinal c);
  (match Labels.v [ ("0bad", "x") ] with
  | exception Invalid_argument _ -> ()
  | _ -> Alcotest.fail "invalid label key accepted");
  (* escaped values survive the series-key round-trip *)
  let tricky = Labels.v [ ("msg", "a\"b\\c\nd,e=f}" ) ] in
  let name, dec = Labels.decode_series (Labels.series "m.x" tricky) in
  Alcotest.(check string) "name recovered" "m.x" name;
  Alcotest.(check bool) "labels recovered" true (Labels.equal tricky dec);
  Alcotest.(check bool) "label-free key decodes as itself" true
    (Labels.decode_series "plain.name" = ("plain.name", Labels.empty))

let test_metrics_empty_summary () =
  let m = Metrics.create () in
  Alcotest.(check bool) "summary of nothing" true (Metrics.summary m "h" = None);
  Alcotest.(check bool) "percentile of nothing" true
    (Metrics.percentile m "h" 0.99 = None)

let test_metrics_merge () =
  let a = Metrics.create () and b = Metrics.create () in
  Metrics.incr a ~by:2 "c";
  Metrics.incr b ~by:3 "c";
  Metrics.incr b ~labels:(Labels.v [ ("p", "x") ]) "c";
  Metrics.set a "g" 1.0;
  Metrics.set b "g" 2.0;
  Metrics.observe a ~buckets "h" 1.0;
  Metrics.observe b ~buckets "h" 10.0;
  Metrics.merge ~into:a b;
  Alcotest.(check int) "counters add" 5 (Metrics.counter_value a "c");
  Alcotest.(check int) "labeled series carried over" 1
    (Metrics.counter_value a ~labels:(Labels.v [ ("p", "x") ]) "c");
  Alcotest.(check (option (float 1e-9))) "gauges take the source" (Some 2.0)
    (Metrics.gauge_value a "g");
  let s = Option.get (Metrics.summary a "h") in
  Alcotest.(check int) "histogram count" 2 s.Metrics.count;
  Alcotest.(check (float 1e-9)) "histogram sum" 11.0 s.Metrics.sum;
  Alcotest.(check (float 1e-9)) "histogram max" 10.0 s.Metrics.max;
  (* same series name under different bucket bounds must refuse *)
  let c = Metrics.create () in
  Metrics.observe c ~buckets:[| 1.0; 2.0 |] "h" 1.0;
  (match Metrics.merge ~into:a c with
  | exception Invalid_argument _ -> ()
  | () -> Alcotest.fail "merged histograms with mismatched buckets");
  (* the null registry absorbs nothing *)
  Metrics.merge ~into:Metrics.null b;
  Alcotest.(check bool) "null stays empty" true
    (Metrics.summary Metrics.null "h" = None)

let test_labeled_metrics () =
  let m = Metrics.create () in
  let fast = Labels.v [ ("path", "fast") ] in
  let full = Labels.v [ ("path", "full") ] in
  Metrics.incr m ~labels:fast "monitor.append";
  Metrics.incr m ~labels:fast "monitor.append";
  Metrics.incr m ~labels:full "monitor.append";
  Metrics.incr m "monitor.append";
  Alcotest.(check int) "fast series" 2
    (Metrics.counter_value m ~labels:fast "monitor.append");
  Alcotest.(check int) "full series" 1
    (Metrics.counter_value m ~labels:full "monitor.append");
  Alcotest.(check int) "unlabeled series distinct" 1
    (Metrics.counter_value m "monitor.append");
  Metrics.observe m ~buckets ~labels:fast "wall" 1.5;
  Alcotest.(check bool) "labeled histogram distinct" true
    (Metrics.summary m "wall" = None
    && Metrics.summary m ~labels:fast "wall" <> None);
  (* null registry: labeled writes are no-ops too *)
  Metrics.incr Metrics.null ~labels:fast "monitor.append";
  Alcotest.(check int) "null labeled" 0
    (Metrics.counter_value Metrics.null ~labels:fast "monitor.append")

let test_prometheus_exposition () =
  let m = Metrics.create () in
  Metrics.incr m ~by:2 ~labels:(Labels.v [ ("path", "fast") ]) "monitor.append";
  Metrics.incr m ~labels:(Labels.v [ ("path", "full") ]) "monitor.append";
  Metrics.set m "engine.nodes" 12.0;
  Metrics.observe m ~buckets "latency.s" 1.5;
  Metrics.observe m ~buckets "latency.s" 100.0;
  let text = Metrics.to_prometheus m in
  List.iter
    (fun needle ->
      Alcotest.(check bool) (Fmt.str "exposition has %S" needle) true
        (contains text needle))
    [
      "# TYPE monitor_append counter";
      "monitor_append{path=\"fast\"} 2";
      "monitor_append{path=\"full\"} 1";
      "# TYPE engine_nodes gauge";
      "engine_nodes 12.0";
      "# TYPE latency_s histogram";
      "latency_s_bucket{le=\"2.0\"} 1";
      "latency_s_bucket{le=\"+Inf\"} 2";
      "latency_s_sum";
      "latency_s_count 2";
    ];
  Alcotest.(check string) "null exposition is empty" ""
    (Metrics.to_prometheus Metrics.null)

let test_recorder_ring () =
  (match Recorder.create ~capacity:0 () with
  | exception Invalid_argument _ -> ()
  | _ -> Alcotest.fail "capacity 0 accepted");
  let r = Recorder.create ~capacity:4 () in
  Alcotest.(check bool) "enabled" true (Recorder.enabled r);
  Alcotest.(check int) "capacity" 4 (Recorder.capacity r);
  for i = 1 to 10 do
    Recorder.record r ~cat:"t"
      ~labels:(Labels.v [ ("i", string_of_int i) ])
      "e"
  done;
  Alcotest.(check int) "total" 10 (Recorder.total r);
  Alcotest.(check int) "length = capacity" 4 (Recorder.length r);
  Alcotest.(check int) "dropped" 6 (Recorder.dropped r);
  let evs = Recorder.events r in
  Alcotest.(check (list int)) "retained tail, oldest first" [ 6; 7; 8; 9 ]
    (List.map (fun e -> e.Recorder.seq) evs);
  let rec mono = function
    | a :: (b :: _ as tl) -> a.Recorder.ts <= b.Recorder.ts && mono tl
    | _ -> true
  in
  Alcotest.(check bool) "timestamps monotone" true (mono evs);
  (* absorb replays the tail with fresh sequence numbers, original payload *)
  let into = Recorder.create ~capacity:8 () in
  Recorder.record into "pre";
  Recorder.absorb ~into r;
  Alcotest.(check int) "absorbed after existing" 5 (Recorder.length into);
  let second = List.nth (Recorder.events into) 1 in
  Alcotest.(check bool) "absorbed payload" true
    (Labels.find "i" second.Recorder.labels = Some "7");
  (* the JSON dump round-trips and reports the ring accounting *)
  let j = Json.of_string (Json.to_string (Recorder.to_json r)) in
  Alcotest.(check bool) "dump accounting" true
    (Json.member "recorded" j = Some (Json.Int 10)
    && Json.member "dropped" j = Some (Json.Int 6));
  (* null recorder: recording is a no-op *)
  Recorder.record Recorder.null "x";
  Alcotest.(check bool) "null disabled" false (Recorder.enabled Recorder.null);
  Alcotest.(check int) "null empty" 0 (Recorder.total Recorder.null);
  Alcotest.(check bool) "null events" true (Recorder.events Recorder.null = [])

(* The engine's always-on observability: labeled per-path append series,
   one flight-recorder event per advance, live gauges, and an
   introspection report that matches the session's real counters. *)
let test_engine_observability () =
  let h =
    Repro_workload.Gen.stack
      (Repro_workload.Prng.create ~seed:9)
      ~levels:2 ~roots:6
  in
  let metrics = Metrics.create () in
  let recorder = Recorder.create () in
  let s = Repro_core.Engine.create ~obs:(Sink.v ~metrics ~recorder ()) () in
  let n = List.length (Repro_model.History.roots h) in
  let verdicts =
    List.init n (fun k ->
        match
          Repro_core.Engine.extend s (Repro_model.History.prefix_by_roots h (k + 1))
        with
        | Repro_core.Engine.Accepted _ -> "accept"
        | Repro_core.Engine.Rejected _ -> "reject")
  in
  let by_path p =
    Metrics.counter_value metrics
      ~labels:(Labels.v [ ("path", p) ])
      "monitor.append"
  in
  Alcotest.(check int) "path series partition the appends"
    (Metrics.counter_value metrics "monitor.appends")
    (by_path "initial" + by_path "fast" + by_path "delta" + by_path "kernel"
   + by_path "full");
  Alcotest.(check int) "one recorder event per append" n
    (Recorder.total recorder);
  List.iter2
    (fun e verdict ->
      Alcotest.(check string) "engine category" "engine" e.Recorder.cat;
      Alcotest.(check bool) "verdict label matches the returned verdict" true
        (Labels.find "verdict" e.Recorder.labels = Some verdict))
    (Recorder.events recorder) verdicts;
  Alcotest.(check bool) "live nodes gauge" true
    (Metrics.gauge_value metrics "engine.nodes" <> None);
  let j = Repro_core.Engine.introspect s in
  match Json.member "session" j with
  | Some sj ->
    Alcotest.(check bool) "introspect counts the appends" true
      (Json.member "appends" sj = Some (Json.Int n))
  | None -> Alcotest.fail "introspection without a session section"

(* Per-item sinks of a parallel run drain back deterministically: merged
   labeled counters equal a sequential run's, recorder events come back
   in input order whatever the claiming interleaving was. *)
let test_parmap_sink_deterministic () =
  let items = List.init 12 (fun i -> i) in
  let run jobs =
    let metrics = Metrics.create () in
    let recorder = Recorder.create () in
    let obs = Sink.v ~metrics ~recorder () in
    let res =
      Repro_par.Pool.parmap_sink ~jobs ~obs
        (fun ~obs i ->
          Metrics.incr obs.Sink.metrics
            ~labels:(Labels.v [ ("w", string_of_int (i mod 3)) ])
            "items";
          Recorder.record obs.Sink.recorder ~cat:"t"
            ~labels:(Labels.v [ ("i", string_of_int i) ])
            "item";
          i * i)
        items
    in
    ( res,
      Metrics.counter_value metrics ~labels:(Labels.v [ ("w", "0") ]) "items",
      List.map
        (fun e -> Labels.find "i" e.Recorder.labels)
        (Recorder.events recorder) )
  in
  let seq = run 1 and par = run 4 in
  Alcotest.(check bool) "parallel = sequential" true (seq = par);
  let _, w0, order = par in
  Alcotest.(check int) "merged labeled counter" 4 w0;
  Alcotest.(check bool) "recorder drained in input order" true
    (order = List.map (fun i -> Some (string_of_int i)) items)

(* ------------------------------------------------------------------ *)
(* Spans                                                               *)
(* ------------------------------------------------------------------ *)

let test_span_basics () =
  let t = Span.create () in
  Alcotest.(check bool) "enabled" true (Span.enabled t);
  let trace = Span.fresh_trace t in
  Alcotest.(check bool) "trace ids are non-zero" true (trace <> 0);
  Alcotest.(check bool) "rate 1.0 samples everything" true
    (Span.sampled t trace);
  let root = Span.start t ~cat:"test" ~trace ~ts:10.0 "root" in
  let child =
    Span.start t ~parent:(Span.id root)
      ~labels:(Labels.v [ ("k", "v") ])
      ~trace ~ts:11.0 "child"
  in
  Span.finish t child ~ts:12.0;
  Span.finish t root ~ts:13.0;
  let eid =
    Span.emit t ~parent:(Span.id root) ~trace ~t0:12.5 ~t1:12.75 "sibling"
  in
  Alcotest.(check bool) "emit returns a fresh id" true
    (eid <> 0 && eid <> Span.id root && eid <> Span.id child);
  Alcotest.(check int) "three spans recorded" 3 (Span.length t);
  let views = Span.spans t in
  Alcotest.(check (list string)) "recording order"
    [ "root"; "child"; "sibling" ]
    (List.map (fun v -> v.Span.v_name) views);
  let child_v = List.nth views 1 in
  Alcotest.(check bool) "child parented on root" true
    (child_v.Span.v_parent = Span.id root);
  Alcotest.(check bool) "child labels survive" true
    (Labels.find "k" child_v.Span.v_labels = Some "v");
  (* Chrome export: one async begin/end pair per span, grouped by trace *)
  let evs =
    Json.to_list_exn (Option.get (Json.member "traceEvents" (Span.to_chrome t)))
  in
  Alcotest.(check int) "one b/e pair per span" 6 (List.length evs);
  Alcotest.(check bool) "async pairs carry the trace as id" true
    (List.for_all
       (fun e ->
         Json.member "id" e = Some (Json.String (Printf.sprintf "0x%x" trace))
         && List.mem (Json.member "ph" e) [ Some (Json.String "b"); Some (Json.String "e") ])
       evs);
  (* spans/1 JSON: stable schema, hex ids, root's parent omitted *)
  let j = Json.of_string (Json.to_string (Span.to_json t)) in
  Alcotest.(check bool) "schema tag" true
    (Json.member "schema" j = Some (Json.String "spans/1"));
  (match Json.member "spans" j with
  | Some (Json.List (r :: c :: _)) ->
    Alcotest.(check bool) "root has no parent field" true
      (Json.member "parent" r = None);
    Alcotest.(check bool) "child parent is the root span, hex" true
      (Json.member "parent" c
      = Some (Json.String (Printf.sprintf "%x" (Span.id root))))
  | _ -> Alcotest.fail "spans/1 without a spans list");
  (* finish is physical: the [none] handle is inert *)
  Span.finish t Span.none ~ts:99.0;
  Alcotest.(check int) "finishing none records nothing" 3 (Span.length t)

(* The Chrome trace_event document, byte for byte: one async b/e pair per
   span keyed by the trace id, span/parent ids and sorted labels in the
   begin event's args, the process_name metadata row first.  Covers two
   traces, a parent chain, a default category, a span never finished and a
   zero-length one. *)
let test_span_chrome_pin () =
  let t = Span.create () in
  let a = Span.fresh_trace t in
  let b = Span.fresh_trace t in
  let root = Span.start t ~cat:"serve" ~trace:a ~ts:1.0 "request" in
  let child =
    Span.emit t ~parent:(Span.id root) ~cat:"engine"
      ~labels:(Labels.v [ ("path", "fast"); ("nodes", "3") ])
      ~trace:a ~t0:1.125 ~t1:1.25 "engine.append"
  in
  ignore (Span.start t ~parent:child ~trace:a ~ts:1.25 "open");
  Span.finish t root ~ts:1.5;
  ignore
    (Span.emit t ~cat:"compc"
       ~labels:(Labels.v [ ("kind", "no_calculation") ])
       ~trace:b ~t0:2.0625 ~t1:2.0625 "failure");
  let expected =
    String.concat ","
      [
        {|{"traceEvents":[{"name":"process_name","ph":"M","pid":0,"args":{"name":"x"}}|};
        {|{"name":"request","cat":"serve","ph":"b","ts":1000000.0,"pid":0,"tid":0,"id":"0x1","args":{"span":"0x3"}}|};
        {|{"name":"request","cat":"serve","ph":"e","ts":1500000.0,"pid":0,"tid":0,"id":"0x1"}|};
        {|{"name":"engine.append","cat":"engine","ph":"b","ts":1125000.0,"pid":0,"tid":0,"id":"0x1","args":{"span":"0x4","parent":"0x3","nodes":"3","path":"fast"}}|};
        {|{"name":"engine.append","cat":"engine","ph":"e","ts":1250000.0,"pid":0,"tid":0,"id":"0x1"}|};
        {|{"name":"open","cat":"span","ph":"b","ts":1250000.0,"pid":0,"tid":0,"id":"0x1","args":{"span":"0x5","parent":"0x4"}}|};
        {|{"name":"open","cat":"span","ph":"e","ts":1250000.0,"pid":0,"tid":0,"id":"0x1"}|};
        {|{"name":"failure","cat":"compc","ph":"b","ts":2062500.0,"pid":0,"tid":0,"id":"0x2","args":{"span":"0x6","kind":"no_calculation"}}|};
        {|{"name":"failure","cat":"compc","ph":"e","ts":2062500.0,"pid":0,"tid":0,"id":"0x2"}],"displayTimeUnit":"ms"}|};
      ]
  in
  Alcotest.(check string) "chrome document" expected
    (Json.to_string (Span.to_chrome ~process:"x" t))

let test_span_null_and_sampling () =
  (* the null collector refuses everything after one branch *)
  Alcotest.(check bool) "null disabled" false (Span.enabled Span.null);
  Alcotest.(check int) "null trace id is 0" 0 (Span.fresh_trace Span.null);
  Alcotest.(check bool) "null never samples" false (Span.sampled Span.null 1);
  let a = Span.start Span.null ~trace:1 ~ts:0.0 "x" in
  Alcotest.(check bool) "null start returns none" true (a == Span.none);
  Alcotest.(check int) "null emit returns 0" 0
    (Span.emit Span.null ~trace:1 ~t0:0.0 ~t1:1.0 "x");
  (* the hot path on the null collector allocates nothing *)
  let w0 = Gc.minor_words () in
  for _ = 1 to 1000 do
    let h = Span.start Span.null ~trace:1 ~ts:0.0 "hot" in
    Span.finish Span.null h ~ts:1.0
  done;
  let dw = Gc.minor_words () -. w0 in
  Alcotest.(check bool)
    (Fmt.str "null start/finish allocation-free (%.0f words)" dw)
    true (dw < 64.0);
  (* rate 0 never samples; the decision is a pure function of the trace
     id, so distinct collectors at the same rate always agree *)
  let z = Span.create ~rate:0.0 () in
  let some_trace = 12345 in
  Alcotest.(check bool) "rate 0 drops" false (Span.sampled z some_trace);
  Alcotest.(check int) "start on unsampled trace records nothing" 0
    (ignore (Span.start z ~trace:some_trace ~ts:0.0 "x");
     Span.length z);
  let a = Span.create ~rate:0.37 ~tag:1 () in
  let b = Span.create ~rate:0.37 ~tag:2 () in
  let agree = ref true in
  for trace = 1 to 1000 do
    if Span.sampled a trace <> Span.sampled b trace then agree := false
  done;
  Alcotest.(check bool) "collectors agree on every sampling decision" true
    !agree;
  let kept = ref 0 in
  for trace = 1 to 1000 do
    if Span.sampled a trace then incr kept
  done;
  Alcotest.(check bool)
    (Fmt.str "rate 0.37 keeps a similar fraction (%d/1000)" !kept)
    true
    (!kept > 250 && !kept < 500);
  (match Span.create ~rate:1.5 () with
  | exception Invalid_argument _ -> ()
  | _ -> Alcotest.fail "rate 1.5 accepted");
  match Span.create ~tag:(1 lsl 22) () with
  | exception Invalid_argument _ -> ()
  | _ -> Alcotest.fail "tag 2^22 accepted"

(* Cross-domain span collection drains back deterministically: a parallel
   parmap_sink run yields the same span list (ids, parents, names, order)
   as the sequential one — the spans twin of the parmap_sink metrics/
   recorder pin above. *)
let test_span_drain_deterministic () =
  let items = List.init 12 (fun i -> i) in
  let run jobs =
    let spans = Span.create () in
    let obs = Sink.v ~spans () in
    let res =
      Repro_par.Pool.parmap_sink ~jobs ~obs
        (fun ~obs i ->
          let spans = obs.Sink.spans in
          let trace = Span.fresh_trace spans in
          let root =
            Span.start spans ~trace
              ~labels:(Labels.v [ ("i", string_of_int i) ])
              ~ts:(float_of_int i) "item"
          in
          ignore
            (Span.emit spans ~parent:(Span.id root) ~trace
               ~t0:(float_of_int i)
               ~t1:(float_of_int i +. 0.5)
               "step");
          Span.finish spans root ~ts:(float_of_int i +. 1.0);
          i)
        items
    in
    ( res,
      List.map
        (fun v -> (v.Span.v_trace, v.Span.v_id, v.Span.v_parent, v.Span.v_name))
        (Span.spans spans) )
  in
  let seq = run 1 and par = run 4 in
  Alcotest.(check bool) "parallel spans = sequential spans" true (seq = par);
  let _, views = par in
  Alcotest.(check int) "all spans drained" (2 * List.length items)
    (List.length views)

(* The two escaping pins of the dump surfaces: a labeled histogram's
   Prometheus _sum/_count series and a recorder event's canonical series
   string both round-trip through [Labels.decode_series] even with
   backslash/quote/newline label values. *)
let test_dump_escaping_roundtrip () =
  let nasty = Labels.v [ ("p", "a\\b\"c\nd") ] in
  let m = Metrics.create () in
  Metrics.observe m ~labels:nasty ~buckets "lat.s" 1.5;
  let text = Metrics.to_prometheus m in
  let sum_line =
    List.find_opt
      (fun l ->
        String.length l > 9 && String.sub l 0 8 = "lat_s_su"
        && not (contains l "bucket"))
      (String.split_on_char '\n' text)
  in
  (match sum_line with
  | None -> Alcotest.fail "no _sum line for the labeled histogram"
  | Some line -> (
    match String.index_opt line ' ' with
    | None -> Alcotest.fail "unparseable exposition line"
    | Some sp ->
      let series = String.sub line 0 sp in
      let name, dec = Labels.decode_series series in
      Alcotest.(check string) "sum series name" "lat_s_sum" name;
      Alcotest.(check bool) "escaped label value decodes back" true
        (Labels.equal dec nasty)));
  let r = Recorder.create () in
  Recorder.record r ~cat:"t" ~labels:nasty "evt";
  (* through the actual JSON dump: every labeled event carries its
     canonical escaped series string *)
  match Json.member "events" (Recorder.to_json r) with
  | Some (Json.List [ e ]) -> (
    match Json.member "series" e with
    | Some (Json.String series) ->
      let name, dec = Labels.decode_series series in
      Alcotest.(check string) "event series name" "evt" name;
      Alcotest.(check bool) "event labels decode back" true
        (Labels.equal dec nasty)
    | _ -> Alcotest.fail "recorder dump without a series string")
  | _ -> Alcotest.fail "recorder dump without events"

(* qcheck: random span trees built through the API are well-parented
   (every non-root parent id is an earlier span of the same trace) and
   properly nested (a child's interval lies within its parent's). *)
let spans_qcheck =
  let open QCheck in
  (* A tree shape: for node i > 0, parent.(i) is some j < i; node 0 is
     the root.  Spans are opened in preorder and closed in reverse, so
     nesting holds by construction — the property checks the collector
     preserves it. *)
  let arb =
    make
      ~print:(fun l -> String.concat ";" (List.map string_of_int l))
      Gen.(list_size (int_range 1 12) (int_bound 100))
  in
  [
    Test.make ~count:100 ~name:"span trees are well-parented and nested" arb
      (fun seed ->
        let n = List.length seed in
        let parent =
          Array.of_list (List.mapi (fun i s -> if i = 0 then -1 else s mod i) seed)
        in
        let t = Span.create () in
        let trace = Span.fresh_trace t in
        let handles = Array.make n Span.none in
        let t0 = Array.make n 0.0 and t1 = Array.make n 0.0 in
        (* Open every span at a depth-derived time, close in reverse
           order at mirrored times: child intervals strictly inside
           parents. *)
        let rec depth i = if parent.(i) < 0 then 0 else 1 + depth parent.(i) in
        Array.iteri
          (fun i _ ->
            t0.(i) <- (float_of_int i *. 100.0) +. float_of_int (depth i);
            t1.(i) <- (float_of_int i *. 100.0) +. 50.0 -. float_of_int (depth i))
          handles;
        (* parents must open before and close after their children: use
           the root's envelope for every subtree by opening in preorder
           with times nested by depth under a common origin *)
        let open_order = List.init n (fun i -> i) in
        List.iter
          (fun i ->
            let p = if parent.(i) < 0 then 0 else Span.id handles.(parent.(i)) in
            let d = float_of_int (depth i) in
            handles.(i) <-
              Span.start t ~parent:p ~trace ~ts:d (Fmt.str "s%d" i))
          open_order;
        List.iter
          (fun i ->
            let d = float_of_int (depth i) in
            Span.finish t handles.(i) ~ts:(100.0 -. d))
          (List.rev open_order);
        let views = Span.spans t in
        let ids = List.map (fun v -> v.Span.v_id) views in
        List.length views = n
        && List.for_all
             (fun v ->
               v.Span.v_trace = trace
               && (v.Span.v_parent = 0 || List.mem v.Span.v_parent ids))
             views
        && List.for_all
             (fun v ->
               v.Span.v_parent = 0
               ||
               let p =
                 List.find (fun w -> w.Span.v_id = v.Span.v_parent) views
               in
               p.Span.v_t0 <= v.Span.v_t0 && v.Span.v_t1 <= p.Span.v_t1)
             views);
    Test.make ~count:100 ~name:"drained ids stay unique across collectors"
      (pair (int_range 1 4) (int_range 1 8))
      (fun (collectors, per) ->
        let into = Span.create () in
        let trace = Span.fresh_trace into in
        let srcs =
          List.init collectors (fun c -> Span.create ~tag:(c + 1) ())
        in
        List.iter
          (fun src ->
            for k = 1 to per do
              ignore
                (Span.emit src ~trace ~t0:(float_of_int k)
                   ~t1:(float_of_int k +. 1.0)
                   "s")
            done)
          srcs;
        List.iter (fun src -> Span.drain ~into src) srcs;
        let ids = List.map (fun v -> v.Span.v_id) (Span.spans into) in
        List.length ids = collectors * per
        && List.length (List.sort_uniq compare ids) = List.length ids
        && List.for_all (fun src -> Span.length src = 0) srcs);
  ]

(* qcheck: the label-set algebra stays canonical under arbitrary
   construction orders and survives the series-key encoding. *)
let labels_qcheck =
  let open QCheck in
  let keys = [ "a"; "b"; "c"; "path"; "worker_1" ] in
  let arb =
    make
      ~print:(fun l ->
        String.concat ";"
          (List.map (fun (k, value) -> k ^ "=" ^ String.escaped value) l))
      Gen.(
        list_size (int_bound 5)
          (pair (oneofl keys) (string_size ~gen:printable (int_bound 6))))
  in
  [
    Test.make ~count:200 ~name:"label sets are canonical" arb (fun l ->
        let t = Labels.v l in
        Labels.equal t (Labels.v (Labels.to_list t))
        && Labels.encode t = Labels.encode (Labels.v (Labels.to_list t)));
    Test.make ~count:200 ~name:"series keys decode back" arb (fun l ->
        let t = Labels.v l in
        let name, dec = Labels.decode_series (Labels.series "m.name" t) in
        name = "m.name" && Labels.equal t dec);
    Test.make ~count:200 ~name:"union is right-biased"
      (pair arb arb)
      (fun (la, lb) ->
        let a = Labels.v la and b = Labels.v lb in
        let u = Labels.union a b in
        List.for_all
          (fun k ->
            Labels.find k u
            =
            match Labels.find k b with
            | Some value -> Some value
            | None -> Labels.find k a)
          keys);
  ]

let suite =
  [
    ( "obs",
      [
        Alcotest.test_case "json round-trip" `Quick test_json_roundtrip;
        Alcotest.test_case "json parser misc" `Quick test_json_parser_misc;
        Alcotest.test_case "metrics counters and gauges" `Quick test_metrics_counters_gauges;
        Alcotest.test_case "histogram bucket math" `Quick test_histogram_bucket_math;
        Alcotest.test_case "histogram overflow and clamping" `Quick
          test_histogram_overflow_and_clamp;
        Alcotest.test_case "metrics json snapshot" `Quick test_metrics_json_snapshot;
        Alcotest.test_case "null metrics are no-ops" `Quick test_null_metrics_noop;
        Alcotest.test_case "chrome trace json" `Quick test_trace_chrome_json;
        Alcotest.test_case "null trace is a no-op" `Quick test_null_trace_noop;
        Alcotest.test_case "sim metrics match stats" `Quick test_sim_metrics_match_stats;
        Alcotest.test_case "telemetry does not perturb the simulation" `Quick
          test_sim_telemetry_is_transparent;
        Alcotest.test_case "checker telemetry" `Quick test_checker_telemetry;
        Alcotest.test_case "label sets are canonical" `Quick
          test_labels_canonical;
        Alcotest.test_case "empty histograms report nothing" `Quick
          test_metrics_empty_summary;
        Alcotest.test_case "metrics merge" `Quick test_metrics_merge;
        Alcotest.test_case "labeled metrics series" `Quick test_labeled_metrics;
        Alcotest.test_case "prometheus exposition" `Quick
          test_prometheus_exposition;
        Alcotest.test_case "flight-recorder ring" `Quick test_recorder_ring;
        Alcotest.test_case "engine observability" `Quick
          test_engine_observability;
        Alcotest.test_case "parmap_sink determinism" `Quick
          test_parmap_sink_deterministic;
        Alcotest.test_case "span collector basics" `Quick test_span_basics;
        Alcotest.test_case "span chrome document is pinned" `Quick
          test_span_chrome_pin;
        Alcotest.test_case "span null and sampling" `Quick
          test_span_null_and_sampling;
        Alcotest.test_case "span drain determinism" `Quick
          test_span_drain_deterministic;
        Alcotest.test_case "dump escaping round-trips" `Quick
          test_dump_escaping_roundtrip;
      ]
      @ List.map (QCheck_alcotest.to_alcotest ~verbose:false) labels_qcheck
      @ List.map (QCheck_alcotest.to_alcotest ~verbose:false) spans_qcheck );
  ]
