(* Verdict forensics: the provenance replay against the batch closure, the
   counterexample shrinker, and the evidence renderings (JSON, DOT, text),
   pinned on the paper's figures and on generated executions. *)
open Repro_model
open Repro_workload
module Rel = Repro_order.Rel
module Int_set = Repro_order.Ids.Int_set
module Compc = Repro_core.Compc
module Engine = Repro_core.Engine
module Shrink = Repro_core.Shrink
module Observed = Repro_core.Observed
module Reduction = Repro_core.Reduction
module Provenance = Repro_core.Provenance
module Evidence = Repro_forensics.Evidence
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

let contains ~needle haystack =
  let nl = String.length needle and hl = String.length haystack in
  let rec go i = i + nl <= hl && (String.sub haystack i nl = needle || go (i + 1)) in
  go 0

(* A chain is a sound derivation when it is conclusion-first, every entry's
   pair is in the closed observed order, and it bottoms out in a premise-free
   Def. 10 base pair. *)
let chain_ok rel prov (a, b) =
  match Provenance.chain prov a b with
  | [] -> false
  | first :: _ as entries ->
    first.Provenance.a = a
    && first.Provenance.b = b
    && List.for_all
         (fun (e : Provenance.entry) ->
           Rel.mem e.Provenance.a e.Provenance.b rel.Observed.obs)
         entries
    && Provenance.is_base
         (List.nth entries (List.length entries - 1)).Provenance.reason

(* ------------------------------------------------------------------ *)
(* Unit tests on the figures                                           *)
(* ------------------------------------------------------------------ *)

let test_figure3_provenance () =
  let fig = Figures.figure3 () in
  let h = fig.Figures.ht in
  let rel = Observed.compute h in
  let prov = Provenance.build h rel in
  Alcotest.(check bool) "replay consistent" true (Provenance.consistent prov);
  Alcotest.(check int)
    "replay cardinality" (Rel.cardinal rel.Observed.obs)
    (Provenance.cardinal prov);
  (* The tension: both root pairs are observed, each climbing from a
     conflicting pair of subtransactions. *)
  let t1 = fig.Figures.tt_t1 and t2 = fig.Figures.tt_t2 in
  Alcotest.(check bool) "T1 <_o T2 derived" true (Provenance.mem prov t1 t2);
  Alcotest.(check bool) "T2 <_o T1 derived" true (Provenance.mem prov t2 t1);
  Alcotest.(check bool) "T1,T2 chain sound" true (chain_ok rel prov (t1, t2));
  Alcotest.(check bool) "T2,T1 chain sound" true (chain_ok rel prov (t2, t1))

let test_figure2_climb () =
  let fig = Figures.figure2 () in
  let h = fig.Figures.h2 in
  let rel = Observed.compute h in
  let prov = Provenance.build h rel in
  Alcotest.(check bool) "replay consistent" true (Provenance.consistent prov);
  let t1 = fig.Figures.f2_t1 and t2 = fig.Figures.f2_t2 in
  (match Provenance.reason prov t1 t2 with
  | Some (Provenance.Climb _) -> ()
  | Some r ->
    Alcotest.failf "root pair reason not a climb: %a"
      (Provenance.pp_reason h) r
  | None -> Alcotest.fail "root pair not derived");
  Alcotest.(check bool) "chain sound" true (chain_ok rel prov (t1, t2));
  (* The chain ends at the base pair the narrative starts from: the
     subtransactions ordered by their conflicting leaf operations o13, o25
     at the shared schedule. *)
  let entries = Provenance.chain prov t1 t2 in
  let last = List.nth entries (List.length entries - 1) in
  Alcotest.(check bool)
    "bottoms out at t11 <_o t21 via o13 ~ o25" true
    (last.Provenance.a = fig.Figures.f2_t11
    && last.Provenance.b = fig.Figures.f2_t21
    &&
    match last.Provenance.reason with
    | Provenance.Base_conflict { op_a; op_b; _ } ->
      op_a = fig.Figures.f2_o13 && op_b = fig.Figures.f2_o25
    | _ -> false)

let test_figure3_cycle_edges () =
  let h = (Figures.figure3 ()).Figures.ht in
  let v = Compc.check h in
  match v.Compc.certificate.Reduction.outcome with
  | Ok _ -> Alcotest.fail "figure 3 must be rejected"
  | Error f ->
    let edges = Reduction.cycle_edges h v.Compc.relations f in
    Alcotest.(check int)
      "closed cycle: one edge per member"
      (List.length (Reduction.failure_cycle f))
      (List.length edges);
    List.iter
      (fun (_, e) ->
        match e with
        | Reduction.Obs_edge { via = a, b } ->
          Alcotest.(check bool)
            "obs witness in the observed order" true
            (Rel.mem a b v.Compc.relations.Observed.obs)
        | Reduction.Inp_edge { via = a, b } ->
          Alcotest.(check bool)
            "inp witness in the input orders" true
            (Rel.mem a b v.Compc.relations.Observed.inp)
        | Reduction.Intra_edge _ | Reduction.Unexplained ->
          Alcotest.fail "figure 3 cycle edges are observed-order edges")
      edges

let test_pp_failure_labels () =
  let h = (Figures.figure3 ()).Figures.ht in
  let v = Compc.check h in
  match Compc.failure v with
  | None -> Alcotest.fail "figure 3 must be rejected"
  | Some f ->
    let s = Fmt.str "%a" (Reduction.pp_failure ~rel:v.Compc.relations h) f in
    Alcotest.(check bool) "owning schedule printed" true (contains ~needle:"@SP" s);
    Alcotest.(check bool) "edge kinds printed" true (contains ~needle:"-obs->" s);
    Alcotest.(check bool) "labels printed" true (contains ~needle:"T1" s)

(* ------------------------------------------------------------------ *)
(* Evidence report golden checks                                       *)
(* ------------------------------------------------------------------ *)

let get path json =
  List.fold_left
    (fun acc key ->
      match acc with
      | Some j -> Json.member key j
      | None -> None)
    (Some json) path

let test_evidence_json_reject () =
  let h = (Figures.figure3 ()).Figures.ht in
  let ev = Evidence.of_session ~shrink:true (Engine.of_history h) in
  (* Round-trip through the printer and parser: the emitted document is
     machine-readable by this repo's own tooling. *)
  let json = Json.of_string (Json.to_string (Evidence.to_json ev)) in
  let str path =
    match get path json with Some (Json.String s) -> s | _ -> "?"
  in
  Alcotest.(check string) "schema" "evidence/1" (str [ "schema" ]);
  Alcotest.(check string) "verdict" "reject" (str [ "verdict" ]);
  Alcotest.(check string)
    "failure kind" "no_calculation"
    (str [ "failure"; "kind" ]);
  (match get [ "fronts" ] json with
  | Some (Json.List fronts) ->
    Alcotest.(check int) "order+1 fronts" 3 (List.length fronts)
  | _ -> Alcotest.fail "fronts missing");
  (match get [ "failure"; "edges" ] json with
  | Some (Json.List edges) ->
    Alcotest.(check bool) "edges present" true (edges <> []);
    List.iter
      (fun e ->
        match Json.member "provenance" e with
        | Some (Json.List (_ :: _ as chain)) ->
          (* Every chain terminates in a Def. 10 base rule. *)
          let last = List.nth chain (List.length chain - 1) in
          let rule =
            match get [ "reason"; "rule" ] last with
            | Some (Json.String s) -> s
            | _ -> "?"
          in
          Alcotest.(check bool)
            "chain ends in a base rule" true
            (rule = "base-output" || rule = "base-conflict")
        | _ -> Alcotest.fail "observed edge without provenance chain")
      edges
  | _ -> Alcotest.fail "failure edges missing");
  (match get [ "provenance"; "consistent" ] json with
  | Some (Json.Bool b) -> Alcotest.(check bool) "replay consistent" true b
  | _ -> Alcotest.fail "provenance cross-check missing");
  match get [ "shrunk" ] json with
  | Some shr ->
    (* Figure 3 is already 1-minimal: the shrinker keeps all 10 nodes, and
       the embedded histlang text re-parses to the same failure kind. *)
    (match Json.member "nodes" shr with
    | Some (Json.Int n) -> Alcotest.(check int) "minimal already" 10 n
    | _ -> Alcotest.fail "shrunk.nodes missing");
    (match Json.member "histlang" shr with
    | Some (Json.String text) ->
      let h' = Repro_histlang.Syntax.parse text in
      let v' = Compc.check h' in
      Alcotest.(check string)
        "shrunken history reproduces the kind" "no_calculation"
        (match Compc.failure v' with
        | Some f -> Reduction.failure_kind f
        | None -> "accepted")
    | _ -> Alcotest.fail "shrunk.histlang missing")
  | None -> Alcotest.fail "shrunk section missing"

let test_evidence_json_accept () =
  let h = Figures.figure1 () in
  let ev = Evidence.of_session (Engine.of_history h) in
  let json = Json.of_string (Json.to_string (Evidence.to_json ev)) in
  (match get [ "verdict" ] json with
  | Some (Json.String s) -> Alcotest.(check string) "verdict" "accept" s
  | _ -> Alcotest.fail "verdict missing");
  (match get [ "serial_order" ] json with
  | Some (Json.List serial) ->
    Alcotest.(check int)
      "serial order covers the roots"
      (List.length (History.roots h))
      (List.length serial)
  | _ -> Alcotest.fail "serial order missing");
  Alcotest.(check bool)
    "no failure section" true
    (get [ "failure" ] json = None)

let test_evidence_dot () =
  let h = (Figures.figure3 ()).Figures.ht in
  let dot = Evidence.dot (Evidence.of_session (Engine.of_history h)) in
  Alcotest.(check bool) "digraph" true (contains ~needle:"digraph forest" dot);
  Alcotest.(check bool)
    "cycle nodes bordered" true (contains ~needle:"penwidth=2.5" dot);
  Alcotest.(check bool)
    "cycle edges bold" true (contains ~needle:"style=bold" dot);
  Alcotest.(check bool)
    "cycle positions annotated" true (contains ~needle:"cycle[0]" dot);
  let accept_dot =
    Evidence.dot (Evidence.of_session (Engine.of_history (Figures.figure1 ())))
  in
  Alcotest.(check bool)
    "no highlights on accept" false (contains ~needle:"penwidth=2.5" accept_dot)

(* ------------------------------------------------------------------ *)
(* Shrinker units                                                      *)
(* ------------------------------------------------------------------ *)

let test_restrict_identity () =
  let h = history_of_seed 7 in
  let all = Int_set.of_list (List.init (History.n_nodes h) (fun i -> i)) in
  let h' = Shrink.restrict h ~keep:all in
  Alcotest.(check int) "same size" (History.n_nodes h) (History.n_nodes h');
  Alcotest.(check (list string)) "still valid" []
    (List.map (Fmt.str "%a" (Validate.pp_error h')) (Validate.check h'));
  Alcotest.(check bool)
    "same verdict" (Compc.is_correct h) (Compc.is_correct h')

let test_shrink_figure3 () =
  let h = (Figures.figure3 ()).Figures.ht in
  match Shrink.shrink h with
  | None -> Alcotest.fail "figure 3 must be rejected"
  | Some r ->
    Alcotest.(check string) "kind preserved" "no_calculation" r.Shrink.kind;
    Alcotest.(check int) "already 1-minimal" 0 r.Shrink.dropped_nodes;
    Alcotest.(check bool) "probes counted" true (r.Shrink.probes > 0)

let test_shrink_accepted () =
  let h = Figures.figure1 () in
  Alcotest.(check bool) "accepted history: nothing to shrink" true
    (Shrink.shrink h = None)

(* ------------------------------------------------------------------ *)
(* Properties                                                          *)
(* ------------------------------------------------------------------ *)

let prop_provenance_sound =
  QCheck.Test.make
    ~name:"provenance replay equals the closure; every chain is sound"
    ~count:60 arb_seed (fun seed ->
      let h = history_of_seed seed in
      let rel = Observed.compute h in
      let prov = Provenance.build h rel in
      Provenance.consistent prov
      && Provenance.cardinal prov = Rel.cardinal rel.Observed.obs
      && Rel.fold
           (fun a b acc -> acc && chain_ok rel prov (a, b))
           rel.Observed.obs true)

let prop_derivation_trees =
  QCheck.Test.make
    ~name:"derivation trees re-derive their pair and bottom out in bases"
    ~count:40 arb_seed (fun seed ->
      let h = history_of_seed seed in
      let rel = Observed.compute h in
      let prov = Provenance.build h rel in
      (* Walk each pair's derivation DAG: conclusions must be observed
         pairs, leaves must be premise-free base rules. *)
      let rec sound (d : Provenance.derivation) =
        let a, b = d.Provenance.concl in
        Rel.mem a b rel.Observed.obs
        && (match d.Provenance.premises with
           | [] -> Provenance.is_base d.Provenance.rule
           | ps -> List.for_all sound ps)
      in
      Rel.fold
        (fun a b acc ->
          acc
          && match Provenance.derive prov a b with
             | Some d -> d.Provenance.concl = (a, b) && sound d
             | None -> false)
        rel.Observed.obs true)

let prop_shrink_preserves_kind =
  QCheck.Test.make
    ~name:"shrunken histories validate and preserve the failure kind"
    ~count:40 arb_seed (fun seed ->
      let h = history_of_seed seed in
      match Shrink.shrink ~max_probes:300 h with
      | None -> Compc.is_correct h
      | Some r ->
        (not (Compc.is_correct h))
        && Validate.check r.Shrink.history = []
        && History.n_nodes r.Shrink.history
           = History.n_nodes h - r.Shrink.dropped_nodes
        && (match Compc.failure (Compc.check r.Shrink.history) with
           | Some f -> Reduction.failure_kind f = r.Shrink.kind
           | None -> false))

let qsuite name tests =
  (name, List.map (QCheck_alcotest.to_alcotest ~verbose:false) tests)

let suite =
  [
    ( "forensics",
      [
        Alcotest.test_case "figure 3 provenance" `Quick test_figure3_provenance;
        Alcotest.test_case "figure 2 climb chain" `Quick test_figure2_climb;
        Alcotest.test_case "figure 3 cycle edges" `Quick
          test_figure3_cycle_edges;
        Alcotest.test_case "pp_failure labels and edges" `Quick
          test_pp_failure_labels;
        Alcotest.test_case "evidence JSON (reject)" `Quick
          test_evidence_json_reject;
        Alcotest.test_case "evidence JSON (accept)" `Quick
          test_evidence_json_accept;
        Alcotest.test_case "evidence DOT highlights" `Quick test_evidence_dot;
        Alcotest.test_case "restrict to everything" `Quick
          test_restrict_identity;
        Alcotest.test_case "shrink figure 3" `Quick test_shrink_figure3;
        Alcotest.test_case "shrink accepted" `Quick test_shrink_accepted;
      ] );
    qsuite "forensics:props"
      [ prop_provenance_sound; prop_derivation_trees; prop_shrink_preserves_kind ];
  ]
