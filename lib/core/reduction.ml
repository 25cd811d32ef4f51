open Repro_order
open Repro_model
open Ids

type failure =
  | Front_not_cc of { index : int; cycle : id list }
  | No_calculation of { level : int; cluster_cycle : id list }
  | Intra_contradiction of { level : int; tx : id; cycle : id list }

type step = { level : int; front : Front.t; layout : id list }

type certificate = {
  initial : Front.t;
  steps : step list;
  outcome : (id list, failure) result;
}

let failure_cycle = function
  | Front_not_cc { cycle; _ } -> cycle
  | No_calculation { cluster_cycle; _ } -> cluster_cycle
  | Intra_contradiction { cycle; _ } -> cycle

let failure_level = function
  | Front_not_cc { index; _ } -> index
  | No_calculation { level; _ } -> level
  | Intra_contradiction { level; _ } -> level

type edge =
  | Obs_edge of { via : id * id }
  | Inp_edge of { via : id * id }
  | Intra_edge of { via : id * id }
  | Unexplained

(* Classify each consecutive (and the closing) edge of a failure's witness
   cycle against the relations the cycle was found in.  A [No_calculation]
   cycle runs over cluster representatives — level-[lvl] transactions
   standing for their operations — so the witness pair [via] justifying a
   quotient edge may be an operation pair one level below the
   representatives.  Preference order: an observed pair explains the most
   (it has a Def. 10 derivation), then input orders, then the transaction's
   own weak intra order (Intra_contradiction cycles only). *)
let cycle_edges h (rel : Observed.relations) f =
  let lvl = failure_level f in
  let members v =
    match f with
    | No_calculation _ -> (
      match History.sched_of_tx h v with
      | Some s
        when History.level h s = lvl && History.children h v <> [] ->
        History.children h v
      | _ -> [ v ])
    | Front_not_cc _ | Intra_contradiction _ -> [ v ]
  in
  let obs_counts x y =
    Rel.mem x y rel.Observed.obs
    && (match f with
       | Front_not_cc _ -> true
       | No_calculation _ | Intra_contradiction _ ->
         (* Layout constraints keep only the generalized conflicts. *)
         Observed.conflict h rel x y)
  in
  let intra_counts x y =
    match f with
    | Intra_contradiction { tx; _ } ->
      Rel.mem x y (History.node h tx).History.intra_weak
    | _ -> false
  in
  let witness a b =
    let xs = members a and ys = members b in
    let probe pred ctor =
      List.find_map
        (fun x ->
          List.find_map (fun y -> if pred x y then Some (ctor x y) else None) ys)
        xs
    in
    match probe obs_counts (fun x y -> Obs_edge { via = (x, y) }) with
    | Some e -> e
    | None -> (
      match
        probe
          (fun x y -> Rel.mem x y rel.Observed.inp)
          (fun x y -> Inp_edge { via = (x, y) })
      with
      | Some e -> e
      | None -> (
        match probe intra_counts (fun x y -> Intra_edge { via = (x, y) }) with
        | Some e -> e
        | None -> Unexplained))
  in
  match failure_cycle f with
  | [] -> []
  | first :: _ as cycle ->
    let rec go = function
      | [] -> []
      | [ last ] -> [ ((last, first), witness last first) ]
      | a :: (b :: _ as rest) -> ((a, b), witness a b) :: go rest
    in
    go cycle

let pp_failure ?rel h ppf f =
  let pn = History.pp_node_sched h in
  let pp_cycle ppf cycle =
    match rel with
    | None -> Fmt.(list ~sep:(any " -> ") pn) ppf cycle
    | Some rel ->
      (* Annotated rendering, closing the cycle: the separator names the
         relation each edge came from. *)
      let arrow = function
        | Obs_edge _ -> "-obs->"
        | Inp_edge _ -> "-inp->"
        | Intra_edge _ -> "-intra->"
        | Unexplained -> "->"
      in
      let edges = cycle_edges h rel f in
      List.iter (fun ((a, _), e) -> Fmt.pf ppf "%a %s " pn a (arrow e)) edges;
      (match cycle with v :: _ -> pn ppf v | [] -> ())
  in
  match f with
  | Front_not_cc { index; cycle } ->
    Fmt.pf ppf "level %d front is not conflict consistent: cycle %a" index
      pp_cycle cycle
  | No_calculation { level; cluster_cycle } ->
    Fmt.pf ppf
      "no calculation at step %d: transactions cannot be isolated, cluster cycle %a"
      level pp_cycle cluster_cycle
  | Intra_contradiction { level; tx; cycle } ->
    Fmt.pf ppf
      "at step %d the intra-transaction order of %a contradicts the observed order: cycle %a"
      level pn tx pp_cycle cycle

module Metrics = Repro_obs.Metrics
module Span = Repro_obs.Span
module Labels = Repro_obs.Labels
module Clock = Repro_obs.Clock

(* One reduction step: isolate every level-[lvl] transaction inside the
   previous front [prev] and produce the level-[lvl] front.  On success
   also returns the cluster count of the contracted graph (telemetry). *)
let reduce_step h rel lvl (prev : Front.t) =
  let level_txs =
    History.schedules_at_level h lvl
    |> List.concat_map (fun s ->
           Int_set.elements (History.schedule h s).History.transactions)
  in
  (* Cluster map: operations of a level-[lvl] transaction map to the
     transaction; every other front member stands for itself.  Transaction
     ids never collide with previous-front member ids, so cluster ids are
     unambiguous. *)
  let cluster = Hashtbl.create 64 in
  List.iter
    (fun t -> List.iter (fun c -> Hashtbl.replace cluster c t) (History.children h t))
    level_txs;
  let cls n = match Hashtbl.find_opt cluster n with Some t -> t | None -> n in
  let constraints = Front.layout_constraints h rel prev in
  (* The constraints restricted to one transaction's operations, probed by
     successor set rather than by scanning the whole relation: the front's
     constraint graph is dense (up to |members|² pairs) while a transaction
     has only a handful of operations, so a per-transaction [Rel.restrict]
     would make this step quadratic in the front size. *)
  let local_constraints ops =
    Int_set.fold
      (fun a acc ->
        Int_set.fold
          (fun b acc -> Rel.add a b acc)
          (Int_set.inter (Rel.succs constraints a) ops)
          acc)
      ops Rel.empty
  in
  (* Intra-cluster feasibility (Def. 14): within one transaction, the
     observed/input orders joined with the transaction's weak
     intra-transaction order must be acyclic.  The per-transaction graphs
     are node-disjoint, so their union is block-diagonal and one dense
     cycle search decides every transaction at once; a cycle cannot leave
     its block, so its nodes name the culprit transaction. *)
  let intra_failure =
    let n = History.n_nodes h in
    let mark = Bytes.make n '\000' in
    let count = ref 0 in
    List.iter
      (fun t ->
        List.iter
          (fun c ->
            if Bytes.get mark c = '\000' then begin
              Bytes.set mark c '\001';
              incr count
            end)
          (History.children h t))
      level_txs;
    let ids = Array.make (max 1 !count) 0 in
    let j = ref 0 in
    for v = 0 to n - 1 do
      if Bytes.get mark v = '\001' then begin
        ids.(!j) <- v;
        incr j
      end
    done;
    let b = Bitrel.of_ids (if !count = 0 then [||] else ids) in
    Rel.iter
      (fun x y ->
        match (Hashtbl.find_opt cluster x, Hashtbl.find_opt cluster y) with
        | Some t1, Some t2 when t1 = t2 -> Bitrel.add b x y
        | _ -> ())
      constraints;
    List.iter
      (fun t -> Rel.iter (fun x y -> Bitrel.add b x y) (History.node h t).History.intra_weak)
      level_txs;
    match Bitrel.find_cycle b with
    | Some cycle ->
      Some
        (Intra_contradiction
           { level = lvl; tx = History.parent_tx h (List.hd cycle); cycle })
    | None -> None
  in
  match intra_failure with
  | Some f -> Error f
  | None -> (
    (* Contract the constraint graph by the cluster map and sort it, both in
       the dense representation: cluster identifiers form the universe, so
       isolated clusters still appear in the calculation order. *)
    let cluster_universe =
      Int_set.of_list (List.map cls (Int_set.elements prev.Front.members))
    in
    let quotient = Bitrel.create cluster_universe in
    Rel.iter
      (fun a b ->
        let ca = cls a and cb = cls b in
        if ca <> cb then Bitrel.add quotient ca cb)
      constraints;
    match Bitrel.topo_sort quotient with
    | None ->
      let cycle =
        match Bitrel.find_cycle quotient with Some c -> c | None -> assert false
      in
      Error (No_calculation { level = lvl; cluster_cycle = cycle })
    | Some cluster_order ->
      (* Expand the cluster order into the witness layout F**: clusters in
         quotient-topological order, each cluster laid out consistently with
         its internal constraints. *)
      let tx_set = Int_set.of_list level_txs in
      let layout =
        List.concat_map
          (fun c ->
            if Int_set.mem c tx_set then begin
              let ops = Int_set.of_list (History.children h c) in
              let local =
                Rel.union (local_constraints ops) (History.node h c).History.intra_weak
              in
              (* Acyclic: the intra-cluster check above succeeded. *)
              Option.get (Rel.topo_sort ~nodes:ops local)
            end
            else [ c ])
          cluster_order
      in
      let front = Front.make h rel lvl in
      Ok ({ level = lvl; front; layout }, Int_set.cardinal cluster_universe))

let failure_kind = function
  | Front_not_cc _ -> "front_not_cc"
  | No_calculation _ -> "no_calculation"
  | Intra_contradiction _ -> "intra_contradiction"

let reduce ?rel ?(spans = Span.null) ?(metrics = Metrics.null) h =
  let rel = match rel with Some r -> r | None -> Observed.compute ~metrics h in
  let initial = Front.initial h rel in
  let order = History.order h in
  (* The profile joins the request the caller is executing, if any, and
     is otherwise a trace of its own. *)
  let trace, parent =
    if not (Span.enabled spans) then (0, 0)
    else if Span.ctx_trace spans <> 0 then
      (Span.ctx_trace spans, Span.ctx_parent spans)
    else (Span.fresh_trace spans, 0)
  in
  let tracing = Span.sampled spans trace in
  let telemetry = tracing || Metrics.enabled metrics in
  let span ~t0 ~t1 name labels =
    ignore
      (Span.emit spans ~parent ~cat:"compc" ~labels:(Labels.v labels) ~trace
         ~t0 ~t1 name)
  in
  let instant name labels =
    let now = Clock.now_wall () in
    span ~t0:now ~t1:now name labels
  in
  let record_step ~t0 ~level ~prev_size (step : step option) ~clusters outcome =
    if telemetry then begin
      let t1 = Clock.now_wall () in
      Metrics.incr metrics "compc.steps";
      Metrics.observe metrics "compc.step_wall_s" (t1 -. t0);
      if tracing then
        span ~t0 ~t1 "reduction_step"
          ([
             ("level", string_of_int level);
             ("prev_front", string_of_int prev_size);
             ("outcome", outcome);
           ]
          @ (match step with
            | Some s ->
              [ ("front", string_of_int (Int_set.cardinal s.front.Front.members)) ]
            | None -> [])
          @
          match clusters with
          | Some n -> [ ("clusters", string_of_int n) ]
          | None -> [])
    end
  in
  let finish outcome =
    (match outcome with
    | Ok _ -> Metrics.incr metrics "compc.accept"
    | Error f ->
      Metrics.incr metrics "compc.reject";
      Metrics.incr metrics ("compc.failure." ^ failure_kind f);
      if tracing then instant "failure" [ ("kind", failure_kind f) ]);
    outcome
  in
  let check_cc (front : Front.t) =
    match Front.cc_cycle front with
    | Some cycle -> Some (Front_not_cc { index = front.Front.index; cycle })
    | None -> None
  in
  if tracing then
    instant "front_init"
      [
        ("members", string_of_int (Int_set.cardinal initial.Front.members));
        ("order", string_of_int order);
      ];
  match check_cc initial with
  | Some f -> { initial; steps = []; outcome = finish (Error f) }
  | None ->
    let rec go lvl steps prev =
      if lvl > order then begin
        let final = prev in
        match
          Rel.topo_sort ~nodes:final.Front.members (Front.constraint_graph final)
        with
        | Some serial ->
          { initial; steps = List.rev steps; outcome = finish (Ok serial) }
        | None -> assert false (* final front passed its CC check *)
      end
      else begin
        let t0 = if telemetry then Clock.now_wall () else 0.0 in
        let prev_size = Int_set.cardinal prev.Front.members in
        match reduce_step h rel lvl prev with
        | Error f ->
          record_step ~t0 ~level:lvl ~prev_size None ~clusters:None
            (failure_kind f);
          { initial; steps = List.rev steps; outcome = finish (Error f) }
        | Ok (step, clusters) -> (
          match check_cc step.front with
          | Some f ->
            record_step ~t0 ~level:lvl ~prev_size (Some step)
              ~clusters:(Some clusters) (failure_kind f);
            {
              initial;
              steps = List.rev (step :: steps);
              outcome = finish (Error f);
            }
          | None ->
            record_step ~t0 ~level:lvl ~prev_size (Some step)
              ~clusters:(Some clusters) "ok";
            go (lvl + 1) (step :: steps) step.front)
      end
    in
    go 1 [] initial

let is_correct c = Result.is_ok c.outcome
