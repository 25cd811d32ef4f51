(* The certification engine: session parity with the batch checker and the
   incremental monitor, the one-computation-per-session guarantee (pinned
   against the [compc.observed_computes] counter and the conflict
   interpreter's eval count), cache reuse by the definitional cross-check,
   memo transfer onto restricted views, and byte-identity of the evidence
   report across the batch and session assembly paths. *)
open Repro_model
open Repro_workload
module Int_set = Repro_order.Ids.Int_set
module Compc = Repro_core.Compc
module Engine = Repro_core.Engine
module Observed = Repro_core.Observed
module Reduction = Repro_core.Reduction
module Equivalence = Repro_core.Equivalence
module Shrink = Repro_core.Shrink
module Evidence = Repro_forensics.Evidence
module Metrics = Repro_obs.Metrics
module Sink = Repro_obs.Sink
module Json = Repro_obs.Json

let history_of_seed seed =
  let rng = Prng.create ~seed in
  match seed mod 5 with
  | 0 -> Gen.flat rng ~roots:(2 + (seed mod 4))
  | 1 -> Gen.stack rng ~levels:(2 + (seed mod 3)) ~roots:(2 + (seed mod 3))
  | 2 -> Gen.fork rng ~branches:2 ~roots:(3 + (seed mod 2))
  | 3 -> Gen.join rng ~branches:2 ~roots:3
  | _ -> Gen.general rng ~schedules:(3 + (seed mod 3)) ~roots:(3 + (seed mod 2))

let arb_seed = QCheck.make ~print:string_of_int (QCheck.Gen.int_bound 1_000_000)

let accepted = function Engine.Accepted _ -> true | Engine.Rejected _ -> false

let n_roots h = List.length (History.roots h)

let figure3 () = (Figures.figure3 ()).Figures.ht

(* ------------------------------------------------------------------ *)
(* Telemetry: exactly one closure computation per session              *)
(* ------------------------------------------------------------------ *)

let computes metrics = Metrics.counter_value metrics "compc.observed_computes"

let test_one_compute_per_session () =
  let h = figure3 () in
  let metrics = Metrics.create () in
  let s = Engine.create ~obs:(Sink.v ~metrics ()) () in
  (match Engine.analyze s h with
  | Engine.Rejected _ -> ()
  | Engine.Accepted _ -> Alcotest.fail "figure 3 is not Comp-C");
  Alcotest.(check int) "analyze runs the closure once" 1 (computes metrics);
  let evals = Conflict.evals () in
  let e = Engine.explain s in
  Alcotest.(check bool)
    "rejection comes with provenance" true
    (e.Engine.provenance <> None);
  Alcotest.(check bool)
    "witness cycle classified" true
    (e.Engine.cycle_edges <> []);
  Alcotest.(check int) "explain recomputes no closure" 1 (computes metrics);
  Alcotest.(check int)
    "explain interprets no new label pairs" evals (Conflict.evals ());
  (* Re-extending with the same history is an empty delta: the fast path
     carries the verdict without touching closure or memo. *)
  (match Engine.extend s h with
  | Engine.Rejected _ -> ()
  | Engine.Accepted _ -> Alcotest.fail "verdict changed on empty delta");
  Alcotest.(check int) "zero-delta extend recomputes nothing" 1 (computes metrics);
  Alcotest.(check int)
    "zero-delta extend interprets nothing" evals (Conflict.evals ());
  Alcotest.(check bool)
    "fast path taken" true
    ((Engine.stats s).Engine.fastpath_hits >= 1)

(* Satellite regression: the definitional cross-check used to rebuild the
   closure and the reduction per query; it must now read the session. *)
let test_equivalence_reuses_session () =
  let h = figure3 () in
  let metrics = Metrics.create () in
  let s = Engine.of_history ~obs:(Sink.v ~metrics ()) h in
  Alcotest.(check int) "session warm after analyze" 1 (computes metrics);
  Alcotest.(check bool)
    "containment agrees with reduction" (Engine.accepted s)
    (Equivalence.comp_c_via_containment s);
  (match Equivalence.level_front s 1 with
  | Some f ->
    Alcotest.(check int) "level-1 front" 4 (Int_set.cardinal f.Repro_core.Front.members)
  | None -> Alcotest.fail "figure 3 has a level-1 front");
  Alcotest.(check int)
    "no second closure computation across the queries" 1 (computes metrics)

(* A full-keep view must inherit every memoized conflict pair, so checking
   the re-sealed copy interprets no label pair a warm session already
   decided. *)
let test_view_transfers_memo () =
  let h = figure3 () in
  let warm = Compc.is_correct h in
  let all = Int_set.of_list (List.init (History.n_nodes h) Fun.id) in
  let h' = Shrink.restrict h ~keep:all in
  (* the seal-time replay may interpret a few pairs; the check must not *)
  let evals = Conflict.evals () in
  Alcotest.(check int) "full keep preserves nodes" (History.n_nodes h) (History.n_nodes h');
  Alcotest.(check bool) "verdict preserved" warm (Compc.is_correct h');
  Alcotest.(check int)
    "restriction inherits the conflict memo" evals (Conflict.evals ())

(* ------------------------------------------------------------------ *)
(* Golden evidence: byte identity across the assembly paths            *)
(* ------------------------------------------------------------------ *)

(* examples/figure3.ct verbatim; the expected report is the pre-engine
   output of `compcheck examples/figure3.ct --explain --format json`
   (also committed as test/golden/figure3_evidence.json). *)
let figure3_text =
  {|schedule SQ conflict same-item
schedule SP conflict same-item
schedule SA conflict rw
schedule SB conflict rw
root n0 @ SP T1
root n1 @ SQ T2
tx n2 @ SA parent n0 add(x)
leaf n3 parent n2 w(x)
tx n4 @ SB parent n0 add(y)
leaf n5 parent n4 w(y)
tx n6 @ SA parent n1 add(x)
leaf n7 parent n6 w(x)
tx n8 @ SB parent n1 add(y)
leaf n9 parent n8 w(y)
log SQ : n6 n8
log SP : n2 n4
log SA : n3 n7
order SA : n3 < n7
log SB : n9 n5
order SB : n9 < n5
|}

let golden_evidence =
  {|{"schema":"evidence/1","verdict":"reject","history":{"nodes":10,"roots":2,"schedules":4,"order":2},"fronts":[{"level":0,"members":4,"obs_pairs":2,"inp_pairs":0},{"level":1,"members":4,"obs_pairs":2,"inp_pairs":0},{"level":2,"members":2,"obs_pairs":4,"inp_pairs":0}],"failure":{"kind":"no_calculation","level":2,"cycle":[{"id":0,"label":"T1#0","schedule":"SP"},{"id":1,"label":"T2#1","schedule":"SQ"}],"edges":[{"from":0,"to":1,"kind":"obs","via":[2,6],"provenance":[{"a":2,"b":6,"reason":{"rule":"base-conflict","schedule":"SA","ops":[3,7]}}]},{"from":1,"to":0,"kind":"obs","via":[8,4],"provenance":[{"a":8,"b":4,"reason":{"rule":"base-conflict","schedule":"SB","ops":[9,5]}}]}]},"provenance":{"pairs":8,"consistent":true}}|}

let test_evidence_golden () =
  let h = Repro_histlang.Syntax.parse figure3_text in
  let via_session =
    Json.to_string (Evidence.to_json (Evidence.of_session (Engine.of_history h)))
  in
  Alcotest.(check string) "session assembly matches golden" golden_evidence via_session

(* ------------------------------------------------------------------ *)
(* Properties: the engine is the old pipeline                          *)
(* ------------------------------------------------------------------ *)

let prop_analyze_parity =
  QCheck.Test.make ~name:"Engine.analyze = Observed.compute + Reduction.reduce"
    ~count:300 arb_seed (fun seed ->
      let h = history_of_seed seed in
      let v = Engine.analyze (Engine.create ()) h in
      let rel = Observed.compute h in
      match (v, (Reduction.reduce ~rel h).Reduction.outcome) with
      | Engine.Accepted o, Ok o' -> o = o'
      | Engine.Rejected f, Error f' -> f = f'
      | _ -> false)

let prop_extend_prefix_parity =
  QCheck.Test.make
    ~name:"Engine.extend prefix chain = batch pipeline on every prefix"
    ~count:300 arb_seed (fun seed ->
      let h = history_of_seed seed in
      let s = Engine.create () in
      let ok = ref true in
      for k = 0 to n_roots h do
        let p = History.prefix_by_roots h k in
        let direct =
          match (Reduction.reduce ~rel:(Observed.compute p) p).Reduction.outcome with
          | Ok _ -> true
          | Error _ -> false
        in
        if accepted (Engine.extend s p) <> direct then ok := false
      done;
      !ok)

(* Explain after analyze re-reads the session caches for every generated
   history, not just the figures: one closure computation, whatever the
   shape and however the reduction ended. *)
let prop_explain_reuses_closure =
  QCheck.Test.make ~name:"explain after analyze reuses the session closure"
    ~count:300 arb_seed (fun seed ->
      let h = history_of_seed seed in
      let metrics = Metrics.create () in
      let s = Engine.create ~obs:(Sink.v ~metrics ()) () in
      ignore (Engine.analyze s h);
      ignore (Engine.explain s);
      computes metrics = 1)

let qsuite name tests =
  (name, List.map (QCheck_alcotest.to_alcotest ~verbose:false) tests)

let suite =
  [
    ( "engine",
      [
        Alcotest.test_case "one closure computation per session" `Quick
          test_one_compute_per_session;
        Alcotest.test_case "equivalence queries reuse the session" `Quick
          test_equivalence_reuses_session;
        Alcotest.test_case "views inherit the conflict memo" `Quick
          test_view_transfers_memo;
        Alcotest.test_case "evidence golden bytes" `Quick
          test_evidence_golden;
      ] );
    qsuite "engine:props"
      [ prop_analyze_parity; prop_extend_prefix_parity; prop_explain_reuses_closure ];
  ]
