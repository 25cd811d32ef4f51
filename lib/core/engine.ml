open Repro_order
open Repro_model
open Ids
module Sink = Repro_obs.Sink
module Metrics = Repro_obs.Metrics
module Clock = Repro_obs.Clock
module Json = Repro_obs.Json
module Labels = Repro_obs.Labels
module Recorder = Repro_obs.Recorder
module Span = Repro_obs.Span

type verdict = Accepted of id list | Rejected of Reduction.failure

(* One certified snapshot.  [cert] and [prov] are the lazily materialized
   forensic extensions of the verdict: the incremental paths carry the
   verdict without a reduction transcript, and nothing on the accept path
   needs provenance, so both are derived on first demand — over the frame's
   already-warm relations — and cached here. *)
type frame = {
  h : History.t;
  rel : Observed.relations;
  levels : int array; (* per-schedule levels; fast path requires them stable *)
  verdict : verdict;
  n_obs : int; (* |rel.obs|, carried so per-append gauges skip the O(pairs)
                  cardinal *)
  n_inp : int; (* |rel.inp| *)
  mutable cert : Reduction.certificate option;
  mutable prov : Provenance.t option;
}

(* The session's standing incremental order structures (built lazily, see
   [kernel_build]): one Pearce–Kelly graph per front level for the
   conflict-consistency checks and one per reduction step for the cluster
   quotients, plus the cached serial witness of the final front.  Edges
   are only ever added — relations only grow under the extension
   contract — and the whole value is dropped on {!undo}, on a level
   shift, on a fold, and on a rejection (sticky from there under stable
   levels).  On a folded session the graphs cover the window only: node
   [v] sits at index [v - k_floor], and the folded roots' certified order
   [k_prefix] heads every witness. *)
type kernel = {
  k_order : int;
  k_floor : int; (* the session's floor when the kernel was built *)
  k_prefix : id list; (* the folded roots in certified order *)
  cc : Increl.t array;
      (* [cc.(lvl)]: the level-[lvl] front's constraint graph obs ∪ inp
         over the dense window universe; non-members stay isolated. *)
  quot : Increl.t array;
      (* [quot.(lvl)], lvl >= 1: the step-[lvl] cluster quotient of the
         layout constraints.  Slot 0 is unused. *)
  mutable roots_rev : id list; (* every window root, newest first *)
  mutable n_roots : int;
  mutable serial : id list;
      (* cached witness: [k_prefix], then [roots_rev] in key order *)
  mutable serial_edges : int;
      (* [Increl.n_edges cc.(k_order)] when [serial] was sorted; -1 when
         no witness is cached.  Keys only move when that graph gains an
         edge, so an unchanged count means the cached witness is still a
         valid linear extension and an accepting append allocates no new
         one. *)
  mutable serial_roots : int; (* [n_roots] when [serial] was cached *)
}

type summary = {
  s_nodes : int; (* the fold point: every node below it is folded *)
  s_roots : int;
  s_serial : id list; (* the folded roots in certified order *)
  s_front_sizes : int array; (* per-level front cardinality of the fold *)
  s_boundary_obs : (id * id) list;
      (* observed pairs crossing the previous fold point — the seam
         between the previously folded region and what this fold
         absorbed *)
}

(* Why a folded session re-materialized its dense state, with each
   cause's metric label; a session counts its restores per cause in this
   order. *)
type restore_cause = Below_floor | Folded_tx | Level_shift | Forensic

let restore_causes =
  [
    (Below_floor, "below_floor");
    (Folded_tx, "folded_tx");
    (Level_shift, "level_shift");
    (Forensic, "forensic");
  ]

type t = {
  obs : Sink.t;
  mutable cur : frame option;
  mutable snapshot : frame option option;
      (* [Some s]: state before the last advance, available to [undo].
         [None]: no undo available. *)
  inc : Observed.inc; (* dense closure mirror, reused across appends *)
  mutable kernel : kernel option;
  mutable floor : int;
      (* nodes below this are folded: their dense per-node state (closure
         pairs, memo rows, mirror rows, provenance) was released by
         {!truncate} and the frame's relations cover the window only.
         0 = untruncated. *)
  mutable summary : summary option; (* the immutable fold record *)
  window : int option; (* auto-truncation watermark, in window nodes *)
  mutable eff_window : int;
      (* current watermark: starts at [window] and doubles (capped at 8x)
         on every breach restore, so a stream whose appends keep reaching
         back widens its own retained tail *)
  mutable mark : int;
      (* node count at the last restore, 0 once a fold follows it: the
         watermark counts window nodes from the later of this and the
         floor, so a restored session stays dense for [eff_window] nodes
         before it folds *)
  mutable truncations : int;
  by_cause : int array; (* restores, in [restore_causes] order *)
  mutable appends : int;
  mutable fastpath_hits : int;
  mutable delta_hits : int;
  mutable kernel_hits : int;
  mutable gc0 : Gc.stat;
      (* Gc.quick_stat at session creation: the baseline the introspection
         report's allocation deltas are measured against. *)
}

type stats = {
  appends : int;
  fastpath_hits : int;
  delta_hits : int;
  kernel_hits : int;
}

type explanation = {
  certificate : Reduction.certificate;
  provenance : Provenance.t option;
  cycle_edges : ((id * id) * Reduction.edge) list;
}

let create ?(obs = Sink.null) ?window () =
  (match window with
  | Some w when w <= 0 ->
    invalid_arg "Engine.create: window must be positive"
  | _ -> ());
  {
    obs;
    cur = None;
    snapshot = None;
    inc = Observed.inc_create ();
    kernel = None;
    floor = 0;
    summary = None;
    window;
    eff_window = (match window with Some w -> w | None -> max_int);
    mark = 0;
    truncations = 0;
    by_cause = Array.make (List.length restore_causes) 0;
    appends = 0;
    fastpath_hits = 0;
    delta_hits = 0;
    kernel_hits = 0;
    gc0 = Gc.quick_stat ();
  }

let levels_of h =
  Array.init (History.n_schedules h) (fun s -> History.level h s)

let verdict_of_certificate (c : Reduction.certificate) =
  match c.Reduction.outcome with
  | Ok serial -> Accepted serial
  | Error f -> Rejected f

(* The verdict can be carried unchanged when, relative to the previous
   snapshot:
   - the observed and input orders are unchanged (both only grow under
     extension, so an empty difference is relation equality);
   - every schedule kept its level — front membership and cluster maps
     group nodes by level, so a level shift regroups old nodes;
   - every new node hangs under a new node (or is a root): old
     transactions then keep their intra orders, and new front members
     touch no observed/input pair, so they enter every constraint graph
     as isolated nodes;
   - each new transaction's own weak intra order is acyclic (the only
     edges a new, order-isolated subtree contributes to the Def. 14
     feasibility check).
   Under these conditions an accepting run stays accepting (isolated
   nodes extend every topological order) and a rejecting run's witness
   cycle — built from relations that did not shrink, over groupings that
   did not move — is still a cycle. *)
let fast_path_ok cur h =
  let n_old = History.n_nodes cur.h in
  let n_new = History.n_nodes h in
  let ok = ref true in
  (try
     for i = n_old to n_new - 1 do
       if
         History.children h i <> []
         && not (Rel.is_acyclic (History.node h i).History.intra_weak)
       then raise Exit
     done
   with Exit -> ok := false);
  !ok

(* The smallest parent among the nodes the extension added ([max_int]
   when every new node is a root).  At or above [n_old], every new node
   hangs under a new node or is a root: old transactions then keep their
   children (shared nodes keep parents), so their intra graphs, front
   membership and cluster assignments are all unchanged by the
   extension.  Below the floor, an operation joined a folded transaction,
   whose Def. 14 graph the window no longer holds. *)
let min_new_parent cur h =
  let m = ref max_int in
  for i = History.n_nodes cur.h to History.n_nodes h - 1 do
    match History.parent h i with Some p when p < !m -> m := p | _ -> ()
  done;
  !m

(* [forward n_old delta]: every pair the extension added points {e into}
   the new block (target identifier at or above [n_old]; the source may be
   old — logs and sessions only append, so old operations precede new
   ones).  Then each front's constraint graph is block upper-triangular:
   edges run old→old (unchanged), old→new and new→new, never new→old.  A
   cycle cannot mix blocks — to re-enter the old block it would need a
   new→old edge — so it lies entirely in the old block (impossible when
   the previous verdict was [Accepted]: old relations, conflict status of
   old pairs, levels and groupings are all unchanged) or entirely in the
   new one.  The same argument applies per transaction to the Def. 14
   feasibility graphs and, contracted, to the cluster quotients. *)
let forward n_old pairs = List.for_all (fun ((_, b) : id * id) -> b >= n_old) pairs

exception Fail of Reduction.failure

(* ------------------------------------------------------------------ *)
(* The incremental order kernel                                        *)
(* ------------------------------------------------------------------ *)

(* Front membership as a key range (cf. {!Front.members_at}): node [v]
   sits on the level-[i] front iff [node_lo v <= i <= node_hi v].  Levels
   are stable on every kernel-fed path, so old nodes' ranges never
   move. *)
let node_lo h v = History.level_of_node h v

let node_hi h ~order v =
  match History.parent h v with
  | None -> order
  | Some p -> History.level_of_node h p - 1

(* The step-[lvl] cluster map: operations of level-[lvl] transactions
   stand for their transaction, every other front member for itself (cf.
   {!Reduction.reduce_step}). *)
let cls_at h lvl v =
  match History.parent h v with
  | Some p when History.level_of_node h p = lvl -> p
  | _ -> v

let kernel_sync k h =
  let n = History.n_nodes h - k.k_floor in
  Array.iter (fun g -> Increl.ensure_nodes g n) k.cc;
  for lvl = 1 to k.k_order do
    Increl.ensure_nodes k.quot.(lvl) n
  done

(* Feed one pair: a constraint-graph edge at every front level where both
   endpoints are members, and — when the pair is a layout constraint
   (input pair, or observed pair that is a generalized conflict; both
   facts are static once the pair exists, so deciding them at feed time
   is final) — a quotient edge at every step where the endpoints sit in
   distinct clusters.  A constraint landing {e inside} one cluster
   changes that transaction's Def. 14 feasibility graph instead: [dirty]
   receives it for an explicit re-check.  A boundary pair (folded
   source) is not fed: no pair runs from the window into the folded
   region, so a folded node is a source in every graph and quotient and
   lies on no cycle. *)
let kernel_feed_pair k h rel ~inp ~dirty a b =
  let fl = k.k_floor in
  if a >= fl then begin
    let order = k.k_order in
    let la = node_lo h a and ha = node_hi h ~order a in
    let lb = node_lo h b and hb = node_hi h ~order b in
    let lo = max la lb and hi = min ha hb in
    for lvl = lo to hi do
      Increl.add_edge k.cc.(lvl) (a - fl) (b - fl)
    done;
    if inp || Observed.conflict h rel a b then
      for lvl = max 1 (lo + 1) to min order (hi + 1) do
        let ca = cls_at h lvl a and cb = cls_at h lvl b in
        if ca <> cb then Increl.add_edge k.quot.(lvl) (ca - fl) (cb - fl)
        else if ca <> a || cb <> b then dirty lvl ca
      done
  end

let kernel_nothing_dirty _ _ = ()

let kernel_add_roots k h ~from =
  for v = from to History.n_nodes h - 1 do
    if History.parent h v = None then begin
      k.roots_rev <- v :: k.roots_rev;
      k.n_roots <- k.n_roots + 1
    end
  done

(* Feed an append's exact relation delta (and register its new roots).
   O(|delta| x order) plus the affected-region work of the reorders. *)
let kernel_feed k h (rel : Observed.relations) ~n_old ~dirty
    (delta : Observed.delta) =
  kernel_sync k h;
  kernel_add_roots k h ~from:n_old;
  List.iter
    (fun (a, b) -> kernel_feed_pair k h rel ~inp:false ~dirty a b)
    delta.Observed.d_obs;
  List.iter
    (fun (a, b) -> kernel_feed_pair k h rel ~inp:true ~dirty a b)
    delta.Observed.d_inp

(* Build the kernel from a frame's relations over the window at [floor]:
   the one-time O(|relations| x order) cost paid on the first append
   that needs it after a fold (or on a dense session's first). *)
let kernel_build h (rel : Observed.relations) ~floor ~prefix =
  let order = History.order h in
  let graphs () =
    Array.init (order + 1) (fun _ ->
        Increl.create ~capacity:(History.n_nodes h - floor) ())
  in
  let k =
    {
      k_order = order;
      k_floor = floor;
      k_prefix = prefix;
      cc = graphs ();
      quot = graphs ();
      roots_rev = [];
      n_roots = 0;
      serial = [];
      serial_edges = -1;
      serial_roots = 0;
    }
  in
  kernel_sync k h;
  kernel_add_roots k h ~from:floor;
  Rel.iter
    (kernel_feed_pair k h rel ~inp:false ~dirty:kernel_nothing_dirty)
    rel.Observed.obs;
  Rel.iter
    (kernel_feed_pair k h rel ~inp:true ~dirty:kernel_nothing_dirty)
    rel.Observed.inp;
  k

(* Def. 14 feasibility of one transaction, re-checked from scratch: its
   weak intra order joined with the layout constraints among its
   operations.  Transactions are small, so the |ops|² membership probes
   are the cheap direction (cf. the [local_constraints] note in
   {!Reduction}). *)
let recheck_tx h (rel : Observed.relations) lvl t =
  let ops = History.children h t in
  let b = Bitrel.create (Int_set.of_list ops) in
  Rel.iter
    (fun x y -> Bitrel.add b x y)
    (History.node h t).History.intra_weak;
  List.iter
    (fun x ->
      List.iter
        (fun y ->
          if
            Rel.mem x y rel.Observed.inp
            || (Rel.mem x y rel.Observed.obs && Observed.conflict h rel x y)
          then Bitrel.add b x y)
        ops)
    ops;
  match Bitrel.find_cycle b with
  | Some cycle ->
    raise (Fail (Reduction.Intra_contradiction { level = lvl; tx = t; cycle }))
  | None -> ()

(* Decide the append from the kernel state, mirroring {!Reduction.reduce}'s
   check order: front-0 consistency, then per step the perturbed
   transactions' feasibility, the cluster quotient and the next front.
   Acyclicity is an O(1) flag per graph, and the previous verdict accepted
   every graph this append did not touch, so only the fed edges and the
   [dirty] transactions can flip the answer. *)
let kernel_verdict k h rel ~dirty =
  let fl = k.k_floor in
  let cycle_exn g =
    match Increl.find_cycle g with
    | Some c -> List.map (fun i -> i + fl) c
    | None -> assert false
  in
  try
    if not (Increl.acyclic k.cc.(0)) then
      raise
        (Fail (Reduction.Front_not_cc { index = 0; cycle = cycle_exn k.cc.(0) }));
    for lvl = 1 to k.k_order do
      Hashtbl.iter (fun t l -> if l = lvl then recheck_tx h rel lvl t) dirty;
      if not (Increl.acyclic k.quot.(lvl)) then
        raise
          (Fail
             (Reduction.No_calculation
                { level = lvl; cluster_cycle = cycle_exn k.quot.(lvl) }));
      if not (Increl.acyclic k.cc.(lvl)) then
        raise
          (Fail
             (Reduction.Front_not_cc
                { index = lvl; cycle = cycle_exn k.cc.(lvl) }))
    done;
    (* Accepted.  The final front holds exactly the roots (only they keep
       membership up to the top level), so the maintained keys of its
       constraint graph sort the window's roots; the folded roots precede
       them all (every pair between the two runs folded → window).  The
       sort — and its allocation — is skipped while that graph gains no
       edge. *)
    let g = k.cc.(k.k_order) in
    let e = Increl.n_edges g in
    if e <> k.serial_edges then begin
      k.serial <-
        k.k_prefix
        @ List.sort
            (fun a b -> compare (Increl.pos g (a - fl)) (Increl.pos g (b - fl)))
            k.roots_rev;
      k.serial_edges <- e;
      k.serial_roots <- k.n_roots
    end
    else if k.serial_roots <> k.n_roots then begin
      (* Roots that arrived while the graph stayed still are isolated and
         keyed after every older node: appending them preserves the
         extension property. *)
      let fresh = ref [] in
      let rec take i = function
        | v :: rest when i > 0 ->
          fresh := v :: !fresh;
          take (i - 1) rest
        | _ -> ()
      in
      take (k.n_roots - k.serial_roots) k.roots_rev;
      k.serial <- k.serial @ !fresh;
      k.serial_roots <- k.n_roots
    end;
    Ok k.serial
  with Fail f -> Error f

(* Re-run the reduction on the new block only: the part of every front,
   feasibility graph and cluster quotient induced by nodes [>= n_old].
   All pairs touching a new node are in the deltas (the previous relations
   range over old nodes only), so [delta_obs]/[delta_inp] restricted to
   new×new are exactly the new blocks of the full relations.  Returns the
   serialization tail contributed by the new roots. *)
let delta_reduce cur (rel : Observed.relations) ~d_obs ~d_inp h =
  let n_old = History.n_nodes cur.h in
  let n_new = History.n_nodes h in
  let order = History.order h in
  let is_new v = v >= n_old in
  let new_pairs ps =
    List.fold_left
      (fun acc (a, b) -> if is_new a && is_new b then Rel.add a b acc else acc)
      Rel.empty ps
  in
  let obs2 = new_pairs d_obs in
  let inp2 = new_pairs d_inp in
  (* Def. 16 step 1 on the new block: input orders plus the observed pairs
     that are generalized conflicts (commuting pairs may be swapped). *)
  let constraints =
    Rel.union inp2 (Rel.filter (fun a b -> Observed.conflict h rel a b) obs2)
  in
  (* Front membership and step transactions of the new block, from the new
     identifiers alone: an O(delta) pass instead of re-scanning the whole
     node array per level. *)
  let members_by_level = Array.make (order + 1) Int_set.empty in
  let txs_by_level = Array.make (order + 1) [] in
  for v = n_new - 1 downto n_old do
    let lo = node_lo h v and hi = node_hi h ~order v in
    for lvl = lo to hi do
      members_by_level.(lvl) <- Int_set.add v members_by_level.(lvl)
    done;
    match History.sched_of_tx h v with
    | Some s ->
      let lvl = History.level h s in
      txs_by_level.(lvl) <- v :: txs_by_level.(lvl)
    | None -> ()
  done;
  let new_members lvl = members_by_level.(lvl) in
  let check_cc index members =
    let b = Bitrel.create members in
    let restrict r =
      Rel.iter
        (fun x y ->
          if Int_set.mem x members && Int_set.mem y members then Bitrel.add b x y)
        r
    in
    restrict obs2;
    restrict inp2;
    match Bitrel.find_cycle b with
    | Some cycle -> raise (Fail (Reduction.Front_not_cc { index; cycle }))
    | None -> ()
  in
  (* Mirrors [Reduction.reduce_step] on the new block: isolate the new
     level-[lvl] transactions inside the new part of the previous front. *)
  let step lvl prev_members =
    let level_txs = txs_by_level.(lvl) in
    let cluster = Hashtbl.create 16 in
    List.iter
      (fun t ->
        List.iter (fun c -> Hashtbl.replace cluster c t) (History.children h t))
      level_txs;
    let cls n = match Hashtbl.find_opt cluster n with Some t -> t | None -> n in
    (* Intra-cluster feasibility (Def. 14) of the new transactions; the old
       ones passed before over identical graphs. *)
    let ops = Int_set.of_list (List.concat_map (History.children h) level_txs) in
    let b = Bitrel.create ops in
    Rel.iter
      (fun x y ->
        match (Hashtbl.find_opt cluster x, Hashtbl.find_opt cluster y) with
        | Some t1, Some t2 when t1 = t2 -> Bitrel.add b x y
        | _ -> ())
      constraints;
    List.iter
      (fun t ->
        Rel.iter (fun x y -> Bitrel.add b x y) (History.node h t).History.intra_weak)
      level_txs;
    (match Bitrel.find_cycle b with
    | Some cycle ->
      raise
        (Fail
           (Reduction.Intra_contradiction
              { level = lvl; tx = History.parent_tx h (List.hd cycle); cycle }))
    | None -> ());
    (* Cluster quotient over the new part of the previous front.  Edges
       between new clusters can only come from new×new constraint pairs
       (children of new transactions are new), so [constraints] is
       complete here. *)
    let cluster_universe =
      Int_set.fold (fun v acc -> Int_set.add (cls v) acc) prev_members
        Int_set.empty
    in
    let quotient = Bitrel.create cluster_universe in
    Rel.iter
      (fun x y ->
        if Int_set.mem x prev_members && Int_set.mem y prev_members then begin
          let cx = cls x and cy = cls y in
          if cx <> cy then Bitrel.add quotient cx cy
        end)
      constraints;
    match Bitrel.find_cycle quotient with
    | Some cycle ->
      raise (Fail (Reduction.No_calculation { level = lvl; cluster_cycle = cycle }))
    | None -> ()
  in
  try
    let members = ref (new_members 0) in
    check_cc 0 !members;
    for lvl = 1 to order do
      step lvl !members;
      members := new_members lvl;
      check_cc lvl !members
    done;
    (* The final new front passed its CC check, so its constraint graph —
       [obs2 ∪ inp2] restricted to it — is acyclic. *)
    let graph =
      Rel.filter
        (fun x y -> Int_set.mem x !members && Int_set.mem y !members)
        (Rel.union obs2 inp2)
    in
    match Rel.topo_sort ~nodes:!members graph with
    | Some tail -> Ok tail
    | None -> assert false
  with Fail f -> Error f

(* ------------------------------------------------------------------ *)
(* Frontier truncation                                                 *)
(* ------------------------------------------------------------------ *)

(* Rebuild the exact dense state of a truncated session in place: the
   frame's full relations are recomputed from its (complete) history and
   the floor drops to 0.  The carried verdict is untouched — windowed
   verdicts are exact (see the truncation invariants in DESIGN.md §14) —
   so nothing is re-decided; only the derived dense state is
   re-materialized.  Paid on the appends the window cannot decide — a
   pair landing in the folded prefix, an operation under a folded
   transaction, a level shift — and on forensic demands against a
   truncated frame.  A breach (every cause but [Forensic]) doubles the
   watermark, so a stream that keeps reaching back widens its own
   retained tail. *)
let restore t cause =
  match t.cur with
  | Some f when t.floor > 0 ->
    let metrics = t.obs.Sink.metrics in
    let rel = Observed.compute ~metrics f.h in
    t.cur <-
      Some
        {
          f with
          rel;
          n_obs = Rel.cardinal rel.Observed.obs;
          n_inp = Rel.cardinal rel.Observed.inp;
          cert = None;
          prov = None;
        };
    t.floor <- 0;
    t.mark <- History.n_nodes f.h;
    t.summary <- None;
    t.snapshot <- None;
    t.kernel <- None;
    Observed.inc_rebase t.inc ~floor:0;
    let i = Option.get (List.find_index (fun (c, _) -> c = cause) restore_causes) in
    t.by_cause.(i) <- t.by_cause.(i) + 1;
    let name = List.assoc cause restore_causes in
    (match (t.window, cause) with
    | Some w, (Below_floor | Folded_tx | Level_shift) ->
      t.eff_window <- min (2 * t.eff_window) (8 * w)
    | _ -> ());
    Metrics.incr metrics
      ~labels:(Labels.v [ ("cause", name) ])
      "engine.restores";
    if Recorder.enabled t.obs.Sink.recorder then
      Recorder.record t.obs.Sink.recorder ~severity:Recorder.Warn
        ~cat:"engine"
        ~labels:
          (Labels.v
             [
               ("nodes", string_of_int (History.n_nodes f.h));
               ("cause", name);
             ])
        "restore"
  | _ -> ()

(* Fold the certified prefix below [at] into an immutable summary and
   release the dense per-node state: the frame keeps its history and
   verdict (the folded roots' order is part of the summary and of every
   later Accepted verdict), but its relations keep only the pairs with
   both endpoints at or above [at], the conflict memo's planes are
   dropped ({!History.memo_release}), the dense mirror rebases onto the
   retained window and gives its bit matrices back, and the kernel,
   snapshot, certificate and provenance index are released.  Session
   memory is O(window) from here until a restore.  [at] must be a legal
   fold point (see [fold_point]) at or below the node count.  Only an
   accepted prefix can be folded — a rejection's witness lives in the
   dense state that truncation releases. *)
let fold t f ~at =
  match f.verdict with
  | Rejected _ ->
    invalid_arg
      "Engine.truncate: only an accepted (certified) prefix can be folded"
  | Accepted serial ->
    let metrics = t.obs.Sink.metrics in
    let h = f.h in
    let order = History.order h in
    let prev_floor = t.floor in
    (* Counts carry over from the previous fold; levels have not moved
       since (a level shift restores). *)
    let fronts, roots, from =
      match t.summary with
      | Some s -> (Array.copy s.s_front_sizes, s.s_roots, prev_floor)
      | None -> (Array.make (order + 1) 0, 0, 0)
    in
    let roots = ref roots in
    for v = from to at - 1 do
      if History.parent h v = None then incr roots;
      for l = node_lo h v to node_hi h ~order v do
        fronts.(l) <- fronts.(l) + 1
      done
    done;
    let boundary =
      List.rev
        (Rel.fold
           (fun a b acc ->
             if a < prev_floor && b >= prev_floor && b < at then (a, b) :: acc
             else acc)
           f.rel.Observed.obs [])
    in
    t.summary <-
      Some
        {
          s_nodes = at;
          s_roots = !roots;
          s_serial = List.filter (fun r -> r < at) serial;
          s_front_sizes = fronts;
          s_boundary_obs = boundary;
        };
    let rel = Observed.window f.rel ~floor:at in
    t.cur <-
      Some
        {
          f with
          rel;
          n_obs = Rel.cardinal rel.Observed.obs;
          n_inp = Rel.cardinal rel.Observed.inp;
          cert = None;
          prov = None;
        };
    History.memo_release h;
    Observed.inc_rebase t.inc ~floor:at;
    t.kernel <- None;
    t.snapshot <- None;
    t.floor <- at;
    t.mark <- 0;
    t.truncations <- t.truncations + 1;
    Metrics.incr metrics "engine.truncations";
    Metrics.set metrics "engine.floor" (float_of_int at);
    if Recorder.enabled t.obs.Sink.recorder then
      Recorder.record t.obs.Sink.recorder ~severity:Recorder.Info
        ~cat:"engine"
        ~labels:
          (Labels.v
             [ ("nodes", string_of_int at); ("roots", string_of_int !roots) ])
        "truncate"

(* Where auto-truncation folds a window of [n] nodes: the largest legal
   point in [(floor, limit]], or, when none is legal, the smallest legal
   point above [limit], which keeps what it can of the tail ([n] itself,
   folding everything, is always legal).  A point [p] is legal when no
   node at or above [p] has an ancestor below it and no observed or input
   pair runs from a node at or above [p] to one below it.  Then no edge of
   any front constraint graph, feasibility graph or cluster quotient
   enters the folded region, so no cycle can cross the floor, and the
   window alone decides every later append that keeps it so.  Each parent
   edge and each backward pair [(a, b)], [a > b], rules out the points in
   [(b, a]]; a difference array over the candidates finds the survivors in
   O(window nodes + |relations|). *)
let fold_point t f ~limit =
  let lo = t.floor and n = History.n_nodes f.h in
  let cover = Array.make (n - lo + 2) 0 in
  let forbid b a =
    let l = max (b + 1) (lo + 1) and u = min a n in
    if l <= u then begin
      cover.(l - lo) <- cover.(l - lo) + 1;
      cover.(u - lo + 1) <- cover.(u - lo + 1) - 1
    end
  in
  for v = lo to n - 1 do
    match History.parent f.h v with
    | Some p -> forbid (min p v) (max p v)
    | None -> ()
  done;
  let backward a b = if a > b then forbid b a in
  Rel.iter backward f.rel.Observed.obs;
  Rel.iter backward f.rel.Observed.inp;
  let below = ref None and above = ref None and covered = ref 0 in
  for p = lo + 1 to n do
    covered := !covered + cover.(p - lo);
    if !covered = 0 then
      if p <= limit then below := Some p
      else if !above = None then above := Some p
  done;
  match (!below, !above) with Some p, _ | None, Some p -> p | None, None -> n

(* Fold everything: the explicit entry point.  Idempotent — folding at an
   unchanged node count is a no-op. *)
let truncate t =
  match t.cur with
  | Some f when History.n_nodes f.h > t.floor ->
    fold t f ~at:(History.n_nodes f.h)
  | _ -> ()

(* The auto-truncation watermark, checked before each monitored append:
   once the window holds [eff_window] nodes, counted from the later of
   the floor and the last restore, fold at [fold_point], aiming to retain
   at least half the watermark so appends under the newest roots stay in
   the window.  Open roots that keep taking operations can rule out every
   such point; the fold then keeps the largest legal tail it can,
   possibly none.  Only an accepted frame folds (a rejection's witness
   needs the dense state), and only sessions created with [?window]. *)
let maybe_truncate t =
  match (t.window, t.cur) with
  | Some _, Some ({ verdict = Accepted _; h; _ } as f) ->
    let n = History.n_nodes h in
    if n - max t.floor t.mark >= t.eff_window then
      fold t f ~at:(fold_point t f ~limit:(n - (t.eff_window / 2)))
  | _ -> ()

let summary t = t.summary

let floor t = t.floor

let truncations t = t.truncations

let restores t = Array.fold_left ( + ) 0 t.by_cause

let restores_by_cause t =
  List.mapi (fun i (_, name) -> (name, t.by_cause.(i))) restore_causes

(* Advance the session to [h].  [monitor] selects the metric vocabulary:
   the monitor-facing [extend] reports [monitor.appends] and
   [monitor.append_wall_s]; the batch-facing [analyze] wraps this call in
   the [compc.checks]/[compc.check_wall_s] vocabulary instead. *)
let advance ~monitor t h =
  let metrics = t.obs.Sink.metrics in
  let recorder = t.obs.Sink.recorder in
  let enabled = monitor && Metrics.enabled metrics in
  let recording = Recorder.enabled recorder in
  let spans = t.obs.Sink.spans in
  (* The engine traces itself only inside a request: the caller (server
     shard, monitor CLI) sets the collector's ambient context around the
     call, and the head-sampling decision rides the context's trace id. *)
  let tracing = Span.sampled spans (Span.ctx_trace spans) in
  (* The reduction profile belongs to a batch analysis; a monitor append
     records only its own span. *)
  let profile = if monitor then Span.null else spans in
  let t0 =
    if enabled || recording || tracing then Clock.now_wall () else 0.0
  in
  (* Which append machinery decided this advance; the flight recorder and
     the labeled [monitor.append{path=...}] counter both report it. *)
  let path = ref "full" in
  let frame =
    match t.cur with
    | None ->
      path := "initial";
      let rel = Observed.compute ~metrics h in
      let certificate = Reduction.reduce ~rel ~spans:profile ~metrics h in
      {
        h;
        rel;
        levels = levels_of h;
        verdict = verdict_of_certificate certificate;
        n_obs = Rel.cardinal rel.Observed.obs;
        n_inp = Rel.cardinal rel.Observed.inp;
        cert = Some certificate;
        prov = None;
      }
    | Some cur0 ->
      (* A truncated session (floor > 0) decides every append over the
         window alone while the window stays closed under it: no pair
         may land in the folded prefix ([Below_floor] from the
         saturation, or an input pair's target), no operation may join a
         folded transaction, and levels must hold.  A breach restores
         the exact dense state first and re-decides.  At most one retry:
         restore drops the floor to 0.  Windowed verdicts are exact
         (DESIGN.md §14), so a restore never changes an already-carried
         verdict. *)
      let rec decide cur =
        let n_old = History.n_nodes cur.h in
        let fl = t.floor in
        let levels = levels_of h in
        let stable_levels = levels = cur.levels in
        let redecide cause =
          restore t cause;
          decide (match t.cur with Some f -> f | None -> assert false)
        in
        let min_parent = min_new_parent cur h in
        (* A level shift or an operation under a folded transaction is
           never fast or forward, so a folded session restores for either
           before paying for the saturation. *)
        if fl > 0 && not stable_levels then redecide Level_shift
        else if min_parent < fl then redecide Folded_tx
        else
        let structure = min_parent >= n_old in
        (* The memo's id-ordered ranks are stable under every extension —
           including operations appended to old transactions — so the
           transfer is unconditional, and along the streaming chain it
           lends the previous snapshot's arrays instead of copying them. *)
        History.extend_cache ~from:cur.h h;
        match Observed.extend ~metrics ~inc:t.inc ~prev:cur.rel ~n_old h with
        | exception Observed.Below_floor _ -> redecide Below_floor
        | _, { Observed.d_inp; _ }
          when fl > 0 && List.exists (fun ((_, b) : id * id) -> b < fl) d_inp ->
          redecide Below_floor
        | rel, delta ->
          let d_obs = delta.Observed.d_obs and d_inp = delta.Observed.d_inp in
          let stable = stable_levels && structure in
          let fast =
            stable && d_obs = [] && d_inp = [] && fast_path_ok cur h
          in
          let fwd = stable && forward n_old d_obs && forward n_old d_inp in
          let verdict, cert =
            if fast then begin
          path := "fast";
          t.fastpath_hits <- t.fastpath_hits + 1;
          Metrics.incr metrics "monitor.fastpath_hits";
          (* Keep a standing kernel in step (new nodes, new roots; no
             edges to feed). *)
          (match t.kernel with
          | Some k ->
            kernel_feed k h rel ~n_old ~dirty:kernel_nothing_dirty delta
          | None -> ());
          match cur.verdict with
          | Rejected _ as r -> (r, None)
          | Accepted serial ->
            (* New roots are order-isolated on this path; appending them
               in ascending id order is a valid linear extension. *)
            let delta_roots = ref [] in
            for v = History.n_nodes h - 1 downto n_old do
              if History.parent h v = None then
                delta_roots := v :: !delta_roots
            done;
            (Accepted (serial @ !delta_roots), None)
        end
            else if fwd then begin
          path := "delta";
          t.delta_hits <- t.delta_hits + 1;
          Metrics.incr metrics "monitor.delta_hits";
          (* Dirty marks can only name new transactions here (an
             intra-cluster constraint needs a new-id target under a
             common parent, and [structure] holds), and the new block's
             feasibility is delta_reduce's to check. *)
          (match t.kernel with
          | Some k ->
            kernel_feed k h rel ~n_old ~dirty:kernel_nothing_dirty delta
          | None -> ());
          match cur.verdict with
          | Rejected _ as r ->
            (* The old block — relations, conflict status, groupings — is
               untouched, so the witness cycle survives the extension. *)
            (r, None)
          | Accepted serial -> (
            match delta_reduce cur rel ~d_obs ~d_inp h with
            | Ok tail ->
              (* Old→new edges are consistent with every old-before-new
                 interleaving, so concatenation is a linear extension of
                 the full final front. *)
              (Accepted (serial @ tail), None)
            | Error f -> (Rejected f, None))
        end
        else if stable_levels then begin
          (* The genuine fallback rescued by the kernel: levels stable but
             an edge landed inside the old block (or an operation under an
             old transaction).  Old nodes keep their front memberships and
             cluster maps, so the delta perturbs exactly the graphs its
             edges land in — feed them and read the acyclicity flags.  On
             a folded session the same holds over the window: no breach
             means every fed edge and dirty transaction lies in it. *)
          path := "kernel";
          t.kernel_hits <- t.kernel_hits + 1;
          Metrics.incr metrics "monitor.kernel_hits";
          match cur.verdict with
          | Rejected _ as r ->
            (* Relations only grow and old groupings stand still, so the
               witness survives; no kernel needed while rejected. *)
            (r, None)
          | Accepted _ ->
            let k =
              match t.kernel with
              | Some k -> k
              | None ->
                (* First fallback since the session started or last
                   folded: build over the window from the previous frame
                   — the state the verdict being extended was accepted
                   on — then feed this append's delta like any other. *)
                let prefix =
                  match t.summary with Some s -> s.s_serial | None -> []
                in
                let k = kernel_build cur.h cur.rel ~floor:fl ~prefix in
                t.kernel <- Some k;
                k
            in
            let dirty = Hashtbl.create 8 in
            let mark lvl tx =
              if not (Hashtbl.mem dirty tx) then Hashtbl.add dirty tx lvl
            in
            (* Transactions whose Def. 14 graph changed shape: old parents
               that gained operations, and brand-new transactions (never
               checked before). *)
            for v = History.n_nodes h - 1 downto n_old do
              (match History.parent h v with
              | Some p when p < n_old -> mark (History.level_of_node h p) p
              | _ -> ());
              if History.children h v <> [] then
                mark (History.level_of_node h v) v
            done;
            kernel_feed k h rel ~n_old ~dirty:mark delta;
            (match kernel_verdict k h rel ~dirty with
            | Ok serial -> (Accepted serial, None)
            | Error f -> (Rejected f, None))
        end
            else begin
              path := "full";
              t.kernel <- None;
              let c = Reduction.reduce ~rel ~spans:profile ~metrics h in
              (verdict_of_certificate c, Some c)
            end
          in
          (match verdict with
          | Rejected _ -> t.kernel <- None
          | Accepted _ -> ());
          {
            h;
            rel;
            levels;
            verdict;
            n_obs = cur.n_obs + List.length d_obs;
            n_inp = cur.n_inp + List.length d_inp;
            cert;
            prov = None;
          }
      in
      decide cur0
  in
  t.snapshot <- Some t.cur;
  t.cur <- Some frame;
  t.appends <- t.appends + 1;
  if enabled then begin
    let wall = Clock.now_wall () -. t0 in
    let labels = Labels.v [ ("path", !path) ] in
    Metrics.incr metrics "monitor.appends";
    Metrics.incr metrics ~labels "monitor.append";
    Metrics.observe metrics "monitor.append_wall_s" wall;
    Metrics.observe metrics ~labels "monitor.append_wall_s_by_path" wall;
    (* The cheap per-append slice of the introspection report, kept live as
       gauges so a scrape of a monitored stream always has current state
       sizes without an explicit [introspect] call. *)
    Metrics.set metrics "engine.nodes" (float_of_int (History.n_nodes frame.h));
    Metrics.set metrics "engine.obs_pairs" (float_of_int frame.n_obs);
    Metrics.set metrics "engine.inp_pairs" (float_of_int frame.n_inp);
    let known, totalp = History.memo_stats frame.h in
    Metrics.set metrics "engine.memo_known_pairs" (float_of_int known);
    Metrics.set metrics "engine.memo_fill_ratio"
      (if totalp = 0 then 0.0 else float_of_int known /. float_of_int totalp)
  end;
  if recording then begin
    let severity, verdict_s =
      match frame.verdict with
      | Accepted _ -> ((if !path = "full" && monitor then Recorder.Warn
                        else Recorder.Info), "accept")
      | Rejected _ -> (Recorder.Error, "reject")
    in
    Recorder.record recorder ~severity ~cat:"engine"
      ~labels:
        (Labels.v
           [
             ("path", !path);
             ("nodes", string_of_int (History.n_nodes frame.h));
             ("verdict", verdict_s);
             ( "wall_us",
               Printf.sprintf "%.1f" ((Clock.now_wall () -. t0) *. 1e6) );
           ])
      (if monitor then "append" else "analyze")
  end;
  if tracing then
    ignore
      (Span.emit spans ~parent:(Span.ctx_parent spans) ~cat:"engine"
         ~labels:
           (Labels.v
              [
                ("path", !path);
                ("nodes", string_of_int (History.n_nodes frame.h));
                ( "clusters",
                  string_of_int (List.length (History.roots frame.h)) );
                ( "verdict",
                  match frame.verdict with
                  | Accepted _ -> "accept"
                  | Rejected _ -> "reject" );
              ])
         ~trace:(Span.ctx_trace spans) ~t0 ~t1:(Clock.now_wall ())
         (if monitor then "engine.append" else "engine.analyze"));
  frame.verdict

let extend t h =
  maybe_truncate t;
  advance ~monitor:true t h

let frame_exn t name =
  match t.cur with
  | Some f -> f
  | None -> invalid_arg ("Engine." ^ name ^ ": session holds no history")

(* [spans] receives the reduction profile when the certificate has to be
   derived: the collector for the one an [analyze] forces, none for a
   forensic request. *)
let certify ~spans t =
  restore t Forensic;
  let f = frame_exn t "certificate" in
  match f.cert with
  | Some c -> c
  | None ->
    (* The incremental paths carry the verdict without a transcript;
       re-derive one over the warm relations (no closure recompute).  The
       witness may differ in inessentials from the carried verdict's — see
       {!extend}'s verdict-equivalence note — but the outcome agrees. *)
    let c = Reduction.reduce ~rel:f.rel ~spans ~metrics:t.obs.Sink.metrics f.h in
    f.cert <- Some c;
    c

let certificate t = certify ~spans:Span.null t

let analyze t h =
  let metrics = t.obs.Sink.metrics in
  let telemetry = Sink.enabled t.obs in
  let t0w = if telemetry then Clock.now_wall () else 0.0 in
  let t0c = if telemetry then Clock.now_cpu () else 0.0 in
  let v = advance ~monitor:false t h in
  (* Batch semantics: the certificate is part of the answer. *)
  ignore (certify ~spans:t.obs.Sink.spans t);
  if telemetry then begin
    Metrics.incr metrics "compc.checks";
    Metrics.observe metrics "compc.check_wall_s" (Clock.now_wall () -. t0w);
    Metrics.observe metrics "compc.check_cpu_s" (Clock.now_cpu () -. t0c)
  end;
  v

let of_history ?obs h =
  let t = create ?obs () in
  ignore (analyze t h);
  t

let undo t =
  match t.snapshot with
  | None ->
    if t.floor > 0 then
      (* The pre-truncation state was released with the fold; there is
         nothing exact to roll back to. *)
      invalid_arg "Engine.undo: cannot roll back across a truncation boundary"
    else invalid_arg "Engine.undo: no snapshot held (undo depth is one)"
  | Some s ->
    t.cur <- s;
    t.snapshot <- None;
    (* Rolling back shrinks the relations: both standing incremental
       structures are grow-only mirrors of the advanced state, so drop
       them and let the next append rebuild from the restored frame. *)
    Observed.inc_invalidate t.inc;
    t.kernel <- None

let verdict t = Option.map (fun f -> f.verdict) t.cur

let accepted t =
  match t.cur with
  | None | Some { verdict = Accepted _; _ } -> true
  | Some { verdict = Rejected _; _ } -> false

let history t = Option.map (fun f -> f.h) t.cur

let relations t = Option.map (fun f -> f.rel) t.cur

let obs_pairs t = match t.cur with None -> 0 | Some f -> f.n_obs

let provenance t =
  restore t Forensic;
  let f = frame_exn t "provenance" in
  match f.prov with
  | Some p -> p
  | None ->
    let p = Provenance.build f.h f.rel in
    f.prov <- Some p;
    p

let explain t =
  let cert = certificate t in
  let f = frame_exn t "explain" in
  match cert.Reduction.outcome with
  | Ok _ -> { certificate = cert; provenance = None; cycle_edges = [] }
  | Error failure ->
    {
      certificate = cert;
      provenance = Some (provenance t);
      cycle_edges = Reduction.cycle_edges f.h f.rel failure;
    }

let shrink ?max_probes t =
  let f = frame_exn t "shrink" in
  Shrink.shrink ?max_probes f.h

let stats (t : t) =
  {
    appends = t.appends;
    fastpath_hits = t.fastpath_hits;
    delta_hits = t.delta_hits;
    kernel_hits = t.kernel_hits;
  }

(* A counter-based estimate of the session's resident certification
   state, in words: the persistent closure pairs, the conflict-memo
   planes, the dense mirror's bit matrices (session state, outside the
   frame that [Obj.reachable_words] walks) and the kernel's adjacency
   arrays.  Excludes the immutable history itself — the estimate tracks
   the {e dense derived} state that frontier truncation bounds, which is
   what the memory-flatness gates watch.  O(1); safe to poll per append. *)
let resident_estimate_words (t : t) =
  match t.cur with
  | None -> 0
  | Some f ->
    let pairs = (f.n_obs + f.n_inp) * 8 in
    let memo = (History.memo_bytes f.h + 7) / 8 in
    let mirror = Observed.inc_resident_words t.inc in
    let kernel =
      match t.kernel with
      | None -> 0
      | Some k ->
        Array.fold_left (fun acc g -> acc + Increl.resident_words g) 0 k.cc
        + Array.fold_left
            (fun acc g -> acc + Increl.resident_words g)
            0 k.quot
    in
    let prov =
      match f.prov with None -> 0 | Some p -> Provenance.cardinal p * 8
    in
    pairs + memo + mirror + kernel + prov

let summary_json = function
  | None -> Json.Null
  | Some s ->
    Json.Obj
      [
        ("nodes", Json.Int s.s_nodes);
        ("roots", Json.Int s.s_roots);
        ("serial_len", Json.Int (List.length s.s_serial));
        ( "front_sizes",
          Json.List
            (Array.to_list (Array.map (fun n -> Json.Int n) s.s_front_sizes))
        );
        ("boundary_obs_pairs", Json.Int (List.length s.s_boundary_obs));
      ]

(* The state report behind `compcheck --stats` and the monitor's evidence
   dumps: what this session is holding in memory and what it cost to get
   here.  [deep] (default true) walks the frame with
   [Obj.reachable_words] — history, relations, memo, certificate,
   provenance index — which costs O(prefix); [~deep:false] substitutes
   the O(1) {!resident_estimate_words}, the polling path. *)
let introspect ?(deep = true) (t : t) =
  let gc = Gc.quick_stat () in
  let session =
    Json.Obj
      [
        ("appends", Json.Int t.appends);
        ("fastpath_hits", Json.Int t.fastpath_hits);
        ("delta_hits", Json.Int t.delta_hits);
        ("kernel_hits", Json.Int t.kernel_hits);
        ("kernel_built", Json.Bool (t.kernel <> None));
        ("undo_available", Json.Bool (t.snapshot <> None));
        ("floor", Json.Int t.floor);
        ("truncations", Json.Int t.truncations);
        ("restores", Json.Int (restores t));
        ( "restores_by_cause",
          Json.Obj
            (List.map (fun (c, n) -> (c, Json.Int n)) (restores_by_cause t)) );
        ( "window",
          match t.window with None -> Json.Null | Some w -> Json.Int w );
      ]
  in
  let gc_json =
    Json.Obj
      [
        ("minor_words_delta", Json.Float (gc.Gc.minor_words -. t.gc0.Gc.minor_words));
        ( "major_words_delta",
          Json.Float (gc.Gc.major_words -. t.gc0.Gc.major_words) );
        ( "minor_collections_delta",
          Json.Int (gc.Gc.minor_collections - t.gc0.Gc.minor_collections) );
        ( "major_collections_delta",
          Json.Int (gc.Gc.major_collections - t.gc0.Gc.major_collections) );
        ("heap_words", Json.Int gc.Gc.heap_words);
      ]
  in
  match t.cur with
  | None ->
    Json.Obj
      [
        ("schema", Json.String "engine-stats/1");
        ("history", Json.Null);
        ("session", session);
        ("summary", summary_json t.summary);
        ("gc", gc_json);
      ]
  | Some f ->
    let known, totalp = History.memo_stats f.h in
    Json.Obj
      [
        ("schema", Json.String "engine-stats/1");
        ( "history",
          Json.Obj
            [
              ("nodes", Json.Int (History.n_nodes f.h));
              ("roots", Json.Int (List.length (History.roots f.h)));
              ("schedules", Json.Int (History.n_schedules f.h));
              ("order", Json.Int (History.order f.h));
            ] );
        ( "closure",
          Json.Obj
            [
              ("obs_pairs", Json.Int (Rel.cardinal f.rel.Observed.obs));
              ("inp_pairs", Json.Int (Rel.cardinal f.rel.Observed.inp));
              ("base_obs_pairs", Json.Int (Rel.cardinal (Observed.base f.h)));
            ] );
        ( "conflict_memo",
          Json.Obj
            [
              ("known_pairs", Json.Int known);
              ("total_pairs", Json.Int totalp);
              ( "fill_ratio",
                Json.Float
                  (if totalp = 0 then 0.0
                   else float_of_int known /. float_of_int totalp) );
            ] );
        ( "provenance",
          match f.prov with
          | None -> Json.Obj [ ("built", Json.Bool false) ]
          | Some p ->
            Json.Obj
              [
                ("built", Json.Bool true);
                ("pairs", Json.Int (Provenance.cardinal p));
              ] );
        ( "certificate",
          Json.Obj [ ("materialized", Json.Bool (f.cert <> None)) ] );
        ("session", session);
        ("summary", summary_json t.summary);
        ( "memory",
          Json.Obj
            (( "resident_estimate_words",
               Json.Int (resident_estimate_words t) )
            ::
            (if deep then
               [
                 ( "reachable_words",
                   Json.Int (Obj.reachable_words (Obj.repr f)) );
               ]
             else [])) );
        ("gc", gc_json);
      ]
