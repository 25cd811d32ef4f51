open Repro_order
open Repro_model
open Ids
module Compc = Repro_core.Compc
module Engine = Repro_core.Engine
module Reduction = Repro_core.Reduction
module Observed = Repro_core.Observed
module Provenance = Repro_core.Provenance
module Front = Repro_core.Front
module Shrink = Repro_core.Shrink
module Json = Repro_obs.Json
module Dot = Repro_histlang.Dot
module Syntax = Repro_histlang.Syntax

type t = {
  verdict : Compc.verdict;
  prov : Provenance.t option;
  edges : ((id * id) * Reduction.edge) list;
  shrunk : Shrink.result option;
  extra : (string * Json.t) list;
}

(* Evidence is read from a session: its certificate, provenance and cycle
   classification are cached, so evidence after a batch analysis (or a
   monitored run) reuses the session's closure and conflict memo instead
   of recomputing them. *)
let of_session ?(shrink = false) ?max_probes ?(extra = []) s =
  let verdict = Compc.of_session s in
  let e = Engine.explain s in
  let shrunk =
    if shrink && not (Engine.accepted s) then Engine.shrink ?max_probes s
    else None
  in
  { verdict; prov = e.Engine.provenance; edges = e.Engine.cycle_edges; shrunk; extra }

(* ---- JSON ---- *)

let sname h s = (History.schedule h s).History.sname

let node_json h i =
  (* Owning schedule mirrors {!History.pp_node_sched}: the operation's
     schedule, or for roots the schedule they are transactions of. *)
  let sched =
    match (History.sched_of_op h i, History.sched_of_tx h i) with
    | Some s, _ | None, Some s -> Json.String (sname h s)
    | None, None -> Json.Null
  in
  Json.Obj
    [
      ("id", Json.Int i);
      ("label", Json.String (Fmt.str "%a" (History.pp_node h) i));
      ("schedule", sched);
    ]

let reason_json h (r : Provenance.reason) =
  match r with
  | Provenance.Base_output { sched } ->
    Json.Obj
      [
        ("rule", Json.String "base-output");
        ("schedule", Json.String (sname h sched));
      ]
  | Provenance.Base_conflict { sched; op_a; op_b } ->
    Json.Obj
      [
        ("rule", Json.String "base-conflict");
        ("schedule", Json.String (sname h sched));
        ("ops", Json.List [ Json.Int op_a; Json.Int op_b ]);
      ]
  | Provenance.Climb { from_a; from_b; sched } ->
    Json.Obj
      [
        ("rule", Json.String "climb");
        ("from", Json.List [ Json.Int from_a; Json.Int from_b ]);
        ( "schedule",
          match sched with
          | Some s -> Json.String (sname h s)
          | None -> Json.Null );
      ]
  | Provenance.Trans { mid } ->
    Json.Obj [ ("rule", Json.String "trans"); ("mid", Json.Int mid) ]

let chain_json h prov (a, b) =
  Json.List
    (List.map
       (fun (e : Provenance.entry) ->
         Json.Obj
           [
             ("a", Json.Int e.Provenance.a);
             ("b", Json.Int e.Provenance.b);
             ("reason", reason_json h e.Provenance.reason);
           ])
       (Provenance.chain prov a b))

let edge_json h prov ((a, b), (e : Reduction.edge)) =
  let kind, via, prov_chain =
    match e with
    | Reduction.Obs_edge { via } ->
      ("obs", Some via, Some (chain_json h prov via))
    | Reduction.Inp_edge { via } -> ("inp", Some via, None)
    | Reduction.Intra_edge { via } -> ("intra", Some via, None)
    | Reduction.Unexplained -> ("unexplained", None, None)
  in
  Json.Obj
    ([
       ("from", Json.Int a);
       ("to", Json.Int b);
       ("kind", Json.String kind);
       ( "via",
         match via with
         | Some (x, y) -> Json.List [ Json.Int x; Json.Int y ]
         | None -> Json.Null );
     ]
    @ match prov_chain with Some c -> [ ("provenance", c) ] | None -> [])

let fronts_json h rel =
  Json.List
    (List.init
       (History.order h + 1)
       (fun lvl ->
         let f = Front.make h rel lvl in
         Json.Obj
           [
             ("level", Json.Int lvl);
             ("members", Json.Int (Int_set.cardinal f.Front.members));
             ("obs_pairs", Json.Int (Rel.cardinal f.Front.obs));
             ("inp_pairs", Json.Int (Rel.cardinal f.Front.inp));
           ]))

let shrunk_json (r : Shrink.result) =
  Json.Obj
    [
      ("kind", Json.String r.Shrink.kind);
      ("nodes", Json.Int (History.n_nodes r.Shrink.history));
      ("roots", Json.Int (List.length (History.roots r.Shrink.history)));
      ("probes", Json.Int r.Shrink.probes);
      ("dropped_roots", Json.Int r.Shrink.dropped_roots);
      ("dropped_nodes", Json.Int r.Shrink.dropped_nodes);
      ("histlang", Json.String (Syntax.to_string r.Shrink.history));
    ]

let to_json t =
  let v = t.verdict in
  let h = v.Compc.history in
  let rel = v.Compc.relations in
  let base =
    [
      ("schema", Json.String "evidence/1");
      ( "verdict",
        Json.String (if Compc.is_correct_verdict v then "accept" else "reject")
      );
      ( "history",
        Json.Obj
          [
            ("nodes", Json.Int (History.n_nodes h));
            ("roots", Json.Int (List.length (History.roots h)));
            ("schedules", Json.Int (History.n_schedules h));
            ("order", Json.Int (History.order h));
          ] );
    ]
  in
  let tail =
    match v.Compc.certificate.Reduction.outcome with
    | Ok serial ->
      [ ("serial_order", Json.List (List.map (fun i -> Json.Int i) serial)) ]
    | Error f ->
      let prov = Option.get t.prov in
      [
        ( "failure",
          Json.Obj
            [
              ("kind", Json.String (Reduction.failure_kind f));
              ("level", Json.Int (Reduction.failure_level f));
              ( "cycle",
                Json.List
                  (List.map (node_json h) (Reduction.failure_cycle f)) );
              ("edges", Json.List (List.map (edge_json h prov) t.edges));
            ] );
        ( "provenance",
          Json.Obj
            [
              ("pairs", Json.Int (Provenance.cardinal prov));
              ("consistent", Json.Bool (Provenance.consistent prov));
            ] );
      ]
      @
      (match t.shrunk with
      | Some r -> [ ("shrunk", shrunk_json r) ]
      | None -> [])
  in
  Json.Obj (base @ [ ("fronts", fronts_json h rel) ] @ tail @ t.extra)

(* ---- DOT ---- *)

let dot t =
  let v = t.verdict in
  let h = v.Compc.history in
  let obs = v.Compc.relations.Observed.obs in
  match v.Compc.certificate.Reduction.outcome with
  | Ok _ -> Dot.forest ~obs h
  | Error f ->
    let cycle = Reduction.failure_cycle f in
    let positions = List.mapi (fun k n -> (n, k)) cycle in
    Dot.forest ~obs
      ~highlight_nodes:(Int_set.of_list cycle)
      ~highlight_edges:(List.map fst t.edges)
      ~annotate:(fun i ->
        Option.map (Fmt.str "cycle[%d]") (List.assoc_opt i positions))
      h

(* ---- text ---- *)

let pp_edge h prov ppf ((a, b), (e : Reduction.edge)) =
  let pn = History.pp_node_sched h in
  match e with
  | Reduction.Obs_edge { via } ->
    Fmt.pf ppf "@[<v 2>%a -obs-> %a, derived:@ %a@]" pn a pn b
      (Provenance.pp_chain prov) via
  | Reduction.Inp_edge { via = x, y } ->
    Fmt.pf ppf "%a -inp-> %a  (input-order pair %a -> %a)" pn a pn b pn x pn y
  | Reduction.Intra_edge { via = x, y } ->
    Fmt.pf ppf "%a -intra-> %a  (weak intra pair %a -> %a)" pn a pn b pn x pn
      y
  | Reduction.Unexplained -> Fmt.pf ppf "%a -> %a  (unexplained)" pn a pn b

let pp ppf t =
  let v = t.verdict in
  let h = v.Compc.history in
  Compc.explain ppf v;
  (match t.prov with
  | None -> ()
  | Some prov ->
    Fmt.pf ppf "provenance: %d derived pairs, %s@."
      (Provenance.cardinal prov)
      (if Provenance.consistent prov then "consistent with the closure"
       else "INCONSISTENT with the closure");
    List.iter (fun e -> Fmt.pf ppf "%a@." (pp_edge h prov) e) t.edges);
  match t.shrunk with
  | None -> ()
  | Some r ->
    Fmt.pf ppf
      "shrunk: %d -> %d nodes (%d roots and %d nodes dropped in %d probes), \
       still %s@.%s"
      (History.n_nodes h)
      (History.n_nodes r.Shrink.history)
      r.Shrink.dropped_roots r.Shrink.dropped_nodes r.Shrink.probes
      r.Shrink.kind
      (Syntax.to_string r.Shrink.history)
