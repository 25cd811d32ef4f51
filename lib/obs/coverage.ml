(* The path-coverage registry: every engine/monitor/reduction decision
   counter under a canonical, stable name.

   A point is (canonical key, metric name, required labels): a counter
   series contributes to the point when its decoded name matches and it
   carries every required label with the required value — extra labels
   (the server's [shard=i]) are summed away.  The point list is the
   contract: the exported key set never shrinks and never depends on
   which paths a run happened to hit, so a fuzzer can diff two dumps
   point-wise and steer toward the zeros. *)

let schema = "coverage/1"

let points : (string * string * (string * string) list) list =
  [
    (* Which append machinery decided each monitored advance. *)
    ("engine.append.path.initial", "monitor.append", [ ("path", "initial") ]);
    ("engine.append.path.fast", "monitor.append", [ ("path", "fast") ]);
    ("engine.append.path.delta", "monitor.append", [ ("path", "delta") ]);
    ("engine.append.path.kernel", "monitor.append", [ ("path", "kernel") ]);
    ("engine.append.path.full", "monitor.append", [ ("path", "full") ]);
    ("engine.appends", "monitor.appends", []);
    (* Bounded-memory streaming decisions. *)
    ("engine.truncations", "engine.truncations", []);
    ("engine.restores", "engine.restores", []);
    (* Why each restore happened (the point above sums every cause). *)
    ( "engine.restore.below_floor",
      "engine.restores",
      [ ("cause", "below_floor") ] );
    ("engine.restore.folded_tx", "engine.restores", [ ("cause", "folded_tx") ]);
    ( "engine.restore.level_shift",
      "engine.restores",
      [ ("cause", "level_shift") ] );
    ("engine.restore.forensic", "engine.restores", [ ("cause", "forensic") ]);
    (* Level-by-level reduction decisions. *)
    ("reduction.checks", "compc.checks", []);
    ("reduction.steps", "compc.steps", []);
    ("reduction.accept", "compc.accept", []);
    ("reduction.reject", "compc.reject", []);
    ( "reduction.failure.front_not_cc",
      "compc.failure.front_not_cc",
      [] );
    ( "reduction.failure.no_calculation",
      "compc.failure.no_calculation",
      [] );
    ( "reduction.failure.intra_contradiction",
      "compc.failure.intra_contradiction",
      [] );
    (* Server request handling (summed across shards). *)
    ("serve.open", "serve.open", []);
    ("serve.append", "serve.append", []);
    ("serve.close", "serve.close", []);
  ]

let keys = List.map (fun (k, _, _) -> k) points

let matches labels required =
  List.for_all
    (fun (k, v) -> Labels.find k labels = Some v)
    required

let of_metrics m =
  let tally = Hashtbl.create 32 in
  List.iter (fun k -> Hashtbl.replace tally k 0) keys;
  List.iter
    (fun (series_key, value) ->
      let name, labels = Labels.decode_series series_key in
      List.iter
        (fun (canonical, metric, required) ->
          if name = metric && matches labels required then
            Hashtbl.replace tally canonical
              (Hashtbl.find tally canonical + value))
        points)
    (Metrics.counters m);
  List.map (fun k -> (k, Hashtbl.find tally k)) keys

let to_json m =
  Json.Obj
    [
      ("schema", Json.String schema);
      ( "points",
        Json.Obj (List.map (fun (k, v) -> (k, Json.Int v)) (of_metrics m)) );
    ]
