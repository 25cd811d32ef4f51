open Repro_order
open Repro_model
open Ids

type relations = {
  obs : Rel.t;
  inp : Rel.t;
  inp_strong : Rel.t;
}
(* Neither the inverse of [obs] nor the base pairs live here: {!extend}'s
   worklist saturation joins new pairs against predecessors on the dense
   mirror's [inv_a] relation, and the base pairs are a pure function of the
   history ({!base}), recomputed on the rare paths that want them
   (introspection, provenance checks).  Keeping either in step would put
   more persistent-map path copying on every append of a monitored
   stream. *)

(* Static sources of the observed order:
   - rule 1: a weak-output pair involving a leaf is observed as ordered
     (leaves are atomic; their order is an execution fact);
   - rule 2: a conflicting weak-output pair orders the parents (the
     schedule's serialization decision, pulled up one level). *)
let base_rules h =
  List.fold_left
    (fun acc (s : History.schedule) ->
      Rel.fold
        (fun o o' acc ->
          let acc =
            if History.is_leaf h o || History.is_leaf h o' then Rel.add o o' acc
            else acc
          in
          if History.conflicts h s.History.sid o o' then begin
            let p = History.parent_tx h o and p' = History.parent_tx h o' in
            if p <> p' then Rel.add p p' acc else acc
          end
          else acc)
        s.History.weak_out acc)
    Rel.empty (History.schedules h)

type variant = Final | No_forgetting | Eager_forgetting

(* One round of upward propagation.  In the Final reading, a pair between
   operations of a common schedule climbs only if that schedule sees a
   conflict (rule 2 applied to observed pairs: the schedule is authoritative
   about commutativity, so non-conflicting orders are forgotten on the way
   up — the Figure-3/4 "conflicts can disappear" mechanism); a
   cross-schedule pair climbs unconditionally (rule 3).  The other variants
   exist for the ablation experiment only.

   Note on the algorithm: rounds of propagation alternating with batch
   transitive closure (SCC condensation) beat an incremental pair-at-a-time
   saturation here — dense observed orders approach n^2 pairs, and the
   batch closure's constants win by 3-4x on the E9 workloads. *)
(* The fixpoint runs entirely in the dense representation: the universe is
   the full node array of the history (identifiers are dense by
   construction), and one relation serves every round: propagation adds
   parent pairs to it and the word-parallel kernel closes it, both in
   place.  The persistent [Rel.t] is produced once, at the boundary. *)
let fixpoint variant h base =
  (* Propagation only ever adds pairs between ancestors of already-related
     nodes, so the dense universe is the base's nodes closed under
     [parent_tx] — on sparsely conflicting histories this is a small
     fraction of the forest and the closure rounds stay cheap. *)
  let b0 =
    let n = History.n_nodes h in
    let mark = Bytes.make n '\000' in
    let count = ref 0 in
    let rec climb v =
      if Bytes.unsafe_get mark v = '\000' then begin
        Bytes.unsafe_set mark v '\001';
        incr count;
        let p = History.parent_tx h v in
        if p <> v then climb p
      end
    in
    Rel.iter
      (fun a b ->
        climb a;
        climb b)
      base;
    let ids = Array.make (max 1 !count) 0 in
    let j = ref 0 in
    for v = 0 to n - 1 do
      if Bytes.unsafe_get mark v = '\001' then begin
        ids.(!j) <- v;
        incr j
      end
    done;
    let b = Bitrel.of_ids (if !count = 0 then [||] else ids) in
    Rel.iter (fun a b' -> Bitrel.add b a b') base;
    b
  in
  let rounds = ref 0 in
  (* One in-place pass; [false] means nothing new was added: [cur] is still
     transitively closed, so the fixpoint is reached and the confirming
     closure round is skipped.  Pairs added mid-pass are processed either
     this pass or (since the pass reports a change) the next one. *)
  let propagate_dense cur =
    let changed = ref false in
    Bitrel.iter
      (fun a b ->
        let climbs =
          match variant with
          | No_forgetting -> true
          | Final | Eager_forgetting -> (
            match History.common_op_schedule_id h a b with
            | -1 -> true
            | s -> History.conflicts h s a b)
        in
        if climbs then begin
          let p = History.parent_tx h a and p' = History.parent_tx h b in
          if
            p <> p'
            && (variant <> Eager_forgetting
               || History.common_op_schedule_id h p p' = -1)
            && not (Bitrel.mem cur p p')
          then begin
            Bitrel.add cur p p';
            changed := true
          end
        end)
      cur;
    !changed
  in
  let rec go () =
    incr rounds;
    if propagate_dense b0 then begin
      Bitrel.close b0;
      go ()
    end
  in
  Bitrel.close b0;
  go ();
  (Rel.of_bitrel b0, !rounds)

let compute_with ?(metrics = Repro_obs.Metrics.null) variant h =
  let base_obs = base_rules h in
  let base_obs =
    match variant with
    | Final | No_forgetting -> base_obs
    | Eager_forgetting ->
      (* Rule-2 target pairs between same-schedule operations are dropped
         from the base too. *)
      Rel.filter
        (fun a b ->
          History.is_leaf h a || History.is_leaf h b
          || History.common_op_schedule h a b = None)
        base_obs
  in
  let enabled = Repro_obs.Metrics.enabled metrics in
  let t0w = if enabled then Repro_obs.Clock.now_wall () else 0.0 in
  let t0c = if enabled then Repro_obs.Clock.now_cpu () else 0.0 in
  let obs, rounds = fixpoint variant h base_obs in
  if enabled then begin
    let module M = Repro_obs.Metrics in
    M.incr metrics "compc.observed_computes";
    M.observe metrics "compc.observed_wall_s"
      (Repro_obs.Clock.now_wall () -. t0w);
    M.observe metrics "compc.observed_cpu_s" (Repro_obs.Clock.now_cpu () -. t0c);
    M.set metrics "compc.obs_base_pairs" (float_of_int (Rel.cardinal base_obs));
    M.set metrics "compc.obs_pairs" (float_of_int (Rel.cardinal obs));
    M.set metrics "compc.obs_rounds" (float_of_int rounds)
  end;
  let inp, inp_strong =
    List.fold_left
      (fun (w, s) (sc : History.schedule) ->
        (Rel.union w sc.History.weak_in, Rel.union s sc.History.strong_in))
      (Rel.empty, Rel.empty) (History.schedules h)
  in
  { obs; inp; inp_strong }

let compute ?metrics h = compute_with ?metrics Final h

let base = base_rules

(* The base-rule pairs contributed by the extension: every new weak-output
   pair touches a node [>= n_old] (the orders restricted to shared nodes
   are unchanged), and the rules' other inputs — leaf-ness, conflict
   specifications, parents of shared nodes — are static.  So it suffices
   to replay the rules on the weak-output pairs with a new endpoint,
   probed by successor set: sources at or above [n_old] contribute all
   their pairs, older sources only the tail of their successor set.
   Candidates already observed are filtered by the saturation's membership
   check, so over-approximation is harmless. *)
let base_delta h ~n_old =
  List.fold_left
    (fun acc (s : History.schedule) ->
      let emit o o' acc =
        let acc =
          if History.is_leaf h o || History.is_leaf h o' then Rel.add o o' acc
          else acc
        in
        if History.conflicts h s.History.sid o o' then begin
          let p = History.parent_tx h o and p' = History.parent_tx h o' in
          if p <> p' then Rel.add p p' acc else acc
        end
        else acc
      in
      (* Walk the operations in place (transactions x children) instead of
         materializing [ops_of_schedule]'s list, and probe each old
         source with an allocation-free max-element check before paying
         for a split: a quiescent schedule then contributes no garbage at
         all, which is what keeps the monitor's per-append allocation
         proportional to the delta. *)
      let source acc o =
        let ss = Rel.succs s.History.weak_out o in
        if o >= n_old then Int_set.fold (emit o) ss acc
        else if (not (Int_set.is_empty ss)) && Int_set.max_elt ss >= n_old
        then
          let _, _, news = Int_set.split (n_old - 1) ss in
          Int_set.fold (emit o) news acc
        else acc
      in
      Int_set.fold
        (fun t acc -> List.fold_left source acc (History.children h t))
        s.History.transactions acc)
    Rel.empty (History.schedules h)

type delta = {
  d_obs : (id * id) list;
  d_inp : (id * id) list;
  d_inp_strong : (id * id) list;
}

(* Dense mirror of the observed closure for the saturation loop: growable
   {!Bitrel} matrices for membership and successor/predecessor scans, plus
   a preallocated flat worklist, so the per-pair joins of {!extend} touch
   the minor heap only for the persistent [Rel.t] boundary at the end.
   The mirror is rebuilt from [prev.obs] whenever it is invalid (session
   start, undo, non-extension advance) — an O(|obs|) bit-set pass that
   the callers only pay on paths that are already O(|obs|). *)
type inc = {
  mutable valid : bool;
  mutable nodes : int; (* node count the mirror is synced to *)
  mutable floor : int;
      (* nodes below this are folded (engine frontier truncation): the
         matrices index by [id - floor] and mirror only pairs with both
         endpoints at or above it.  Pairs from a folded source into the
         window ("boundary pairs") are tracked outside the matrices; a
         pair {e targeting} the folded region cannot be represented at
         all and raises {!Below_floor} — the engine's cue to restore the
         exact dense state. *)
  obs_a : Bitrel.t;
  inv_a : Bitrel.t;
  mutable q : int array; (* flattened (a, b) worklist *)
  mutable q_len : int;
}

exception Below_floor of id * id

let inc_create () =
  {
    valid = false;
    nodes = 0;
    floor = 0;
    obs_a = Bitrel.make ~rows:0 ~cols:0;
    inv_a = Bitrel.make ~rows:0 ~cols:0;
    q = Array.make 512 0;
    q_len = 0;
  }

let inc_invalidate inc = inc.valid <- false

let inc_floor inc = inc.floor

(* Move the mirror's floor.  Raising it (truncation) also gives the
   matrices' backing arrays back — the whole point of the fold is that the
   dense O(prefix²) bits stop being resident — and the next sync rebuilds
   them over the retained window alone (a fold may keep a tail of the
   nodes it had, so that rebuild is not empty); lowering it to 0
   (restore) just invalidates, since the next sync will need the full
   size again. *)
let inc_rebase inc ~floor =
  if floor < 0 then invalid_arg "Observed.inc_rebase: negative floor";
  inc.floor <- floor;
  inc.valid <- false;
  if floor > 0 then begin
    Bitrel.shrink inc.obs_a ~rows:0 ~cols:0;
    Bitrel.shrink inc.inv_a ~rows:0 ~cols:0;
    if Array.length inc.q > 512 then inc.q <- Array.make 512 0
  end

(* What a fold at [floor] keeps: pairs with both endpoints at or above
   it.  Boundary pairs (folded source) are dropped too — keeping them
   would make the retained relation O(prefix x window), and no windowed
   verdict reads them (see [saturate_dense]). *)
let window rel ~floor =
  let keep v = v >= floor in
  {
    obs = Rel.restrict ~keep rel.obs;
    inp = Rel.restrict ~keep rel.inp;
    inp_strong = Rel.restrict ~keep rel.inp_strong;
  }

let inc_resident_words inc =
  Bitrel.resident_words inc.obs_a + Bitrel.resident_words inc.inv_a
  + Array.length inc.q

let inc_sync inc prev_obs ~n_old ~n_new =
  let fl = inc.floor in
  let w = max 0 (n_new - fl) in
  if not inc.valid then begin
    Bitrel.reset inc.obs_a ~rows:w ~cols:w;
    Bitrel.reset inc.inv_a ~rows:w ~cols:w;
    Rel.iter
      (fun a b ->
        (* Boundary pairs (folded source) live only in the persistent
           relation; pairs targeting the folded region never occur in a
           window relation (see [saturate_dense]). *)
        if a >= fl && b >= fl then begin
          Bitrel.add inc.obs_a (a - fl) (b - fl);
          Bitrel.add inc.inv_a (b - fl) (a - fl)
        end)
      prev_obs;
    inc.valid <- true;
    inc.nodes <- n_old
  end
  else begin
    Bitrel.ensure inc.obs_a ~rows:w ~cols:w;
    Bitrel.ensure inc.inv_a ~rows:w ~cols:w
  end

let inc_push inc a b =
  if inc.q_len + 2 > Array.length inc.q then begin
    let bigger = Array.make (2 * Array.length inc.q) 0 in
    Array.blit inc.q 0 bigger 0 inc.q_len;
    inc.q <- bigger
  end;
  inc.q.(inc.q_len) <- a;
  inc.q.(inc.q_len + 1) <- b;
  inc.q_len <- inc.q_len + 2

(* Worklist saturation of the Def. 10 rules (Final reading) from an
   already-closed seed: each genuinely new pair is joined against the
   current successors and predecessors (transitivity) and climbed to the
   parents where the common schedule sees a conflict.  The seed is closed
   under all rules, so only pairs reachable from the delta are ever
   touched — across a monitored run the total work is proportional to the
   final closure, not to |appends| x |closure|.  Runs on the dense
   mirror; the genuinely new pairs come back in insertion order so the
   caller can build the persistent relations (and feed the engine's
   incremental structures) from the exact delta.

   With a nonzero floor (frontier truncation) the matrices cover only the
   window and three pair shapes are distinguished:
   - window pairs (both endpoints >= floor): handled exactly as before,
     at offset coordinates;
   - boundary pairs (folded source, window target): deduplicated against
     [prev_obs] and a per-call table, joined against the {e successors}
     of the window endpoint only and climbed as usual.  The predecessor
     joins through the folded region are skipped — they can only produce
     further boundary pairs (a folded node's predecessors are folded,
     because no window-to-folded pair exists short of a breach: the
     engine folds only at points no pair crosses backwards), and
     boundary pairs are never consulted by the machinery that decides
     windowed verdicts — a folded node is a source in every constraint
     graph, so it lies on no cycle.  A fold drops them ({!window}); one
     re-derived later simply counts as new again;
   - pairs targeting the folded region: {!Below_floor}.  Such a pair
     would have to be joined against the folded closure to stay exact,
     so the caller must restore the dense state and recompute. *)
let saturate_dense h inc ~prev_obs delta =
  inc.q_len <- 0;
  Rel.iter (fun a b -> inc_push inc a b) delta;
  let fl = inc.floor in
  let boundary = if fl > 0 then Hashtbl.create 16 else Hashtbl.create 0 in
  let added = ref [] in
  let n_added = ref 0 in
  let head = ref 0 in
  let climb a b =
    let climbs =
      match History.common_op_schedule_id h a b with
      | -1 -> true
      | s -> History.conflicts h s a b
    in
    if climbs then begin
      let p = History.parent_tx h a and p' = History.parent_tx h b in
      if p <> p' then inc_push inc p p'
    end
  in
  (* No irreflexivity filter: a cycle's closure contains the reflexive
     pairs (the batch kernel materializes them too), and those self-loops
     are what the reduction's cycle searches later trip on. *)
  while !head < inc.q_len do
    let a = inc.q.(!head) and b = inc.q.(!head + 1) in
    head := !head + 2;
    if b < fl then raise (Below_floor (a, b))
    else if a < fl then begin
      if not (Hashtbl.mem boundary (a, b)) && not (Rel.mem a b prev_obs)
      then begin
        Hashtbl.add boundary (a, b) ();
        added := (a, b) :: !added;
        incr n_added;
        Bitrel.row_iter inc.obs_a (b - fl) (fun c ->
            let c = c + fl in
            if not (Hashtbl.mem boundary (a, c)) && not (Rel.mem a c prev_obs)
            then inc_push inc a c);
        climb a b
      end
    end
    else if not (Bitrel.mem inc.obs_a (a - fl) (b - fl)) then begin
      Bitrel.add inc.obs_a (a - fl) (b - fl);
      Bitrel.add inc.inv_a (b - fl) (a - fl);
      added := (a, b) :: !added;
      incr n_added;
      Bitrel.row_iter inc.obs_a (b - fl) (fun c ->
          if not (Bitrel.mem inc.obs_a (a - fl) c) then inc_push inc a (c + fl));
      Bitrel.row_iter inc.inv_a (a - fl) (fun c ->
          if not (Bitrel.mem inc.obs_a c (b - fl)) then inc_push inc (c + fl) b);
      climb a b
    end
  done;
  inc.q_len <- 0;
  (List.rev !added, !n_added)

(* New pairs of one schedule's input order under extension: the order
   restricted to shared nodes is unchanged (the extension contract), so
   every new pair touches a new node and is replayed from the source
   adjacency alone — old sources contribute the tail of their successor
   sets past [n_old], new sources everything.  The probe per old source
   is an allocation-free max-element check, so a quiescent schedule costs
   O(log) per source and allocates nothing. *)
let input_delta ~n_old ~sources rel acc0 =
  let acc = ref acc0 in
  let emit a b = if not (Rel.mem a b !acc) then acc := Rel.add a b !acc in
  Int_set.iter
    (fun o ->
      let ss = Rel.succs rel o in
      if o >= n_old then Int_set.iter (fun x -> emit o x) ss
      else if (not (Int_set.is_empty ss)) && Int_set.max_elt ss >= n_old then begin
        let _, _, news = Int_set.split (n_old - 1) ss in
        Int_set.iter (fun x -> emit o x) news
      end)
    sources;
  !acc

(* Incremental recomputation for the monitor.  [h] extends the history
   [prev] was computed from, so the old base pairs are still base pairs
   (weak output orders only grow, leaves stay leaves, parents are stable)
   and [prev.obs] = lfp(old base) is a sound seed: the Def. 10 rules are
   monotone, hence lfp(prev.obs ∪ new base) = lfp(new base).  When no new
   base pair appeared, the old closed relation is already the fixpoint and
   the saturation is skipped entirely.  The input orders are grown the
   same way — per-schedule delta replay instead of re-unioning every
   schedule — so the per-append cost tracks the delta, not the prefix. *)
let extend ?(metrics = Repro_obs.Metrics.null) ?inc ~prev ~n_old h =
  let enabled = Repro_obs.Metrics.enabled metrics in
  let t0w = if enabled then Repro_obs.Clock.now_wall () else 0.0 in
  let n_new = History.n_nodes h in
  let delta_base = base_delta h ~n_old in
  let obs, d_obs, added =
    if Rel.is_empty delta_base then (prev.obs, [], 0)
    else begin
      let inc =
        match inc with
        | Some i -> i
        | None -> inc_create () (* one-shot mirror: correct, unshared *)
      in
      inc_sync inc prev.obs ~n_old ~n_new;
      let pairs, n_added = saturate_dense h inc ~prev_obs:prev.obs delta_base in
      let obs =
        List.fold_left (fun o (a, b) -> Rel.add a b o) prev.obs pairs
      in
      (obs, pairs, n_added)
    end
  in
  (match inc with
  | Some i when i.valid -> i.nodes <- n_new
  | _ -> ());
  if enabled then begin
    let module M = Repro_obs.Metrics in
    M.observe metrics "compc.observed_wall_s"
      (Repro_obs.Clock.now_wall () -. t0w);
    M.observe metrics "compc.obs_saturated_pairs" (float_of_int added);
    M.observe metrics "compc.obs_delta_base_pairs"
      (float_of_int (Rel.cardinal delta_base))
  end;
  let d_inp, d_inp_strong =
    List.fold_left
      (fun (w, s) (sc : History.schedule) ->
        let sources = sc.History.transactions in
        ( input_delta ~n_old ~sources sc.History.weak_in w,
          input_delta ~n_old ~sources sc.History.strong_in s ))
      (Rel.empty, Rel.empty) (History.schedules h)
  in
  let inp = Rel.fold (fun a b r -> Rel.add a b r) d_inp prev.inp in
  let inp_strong =
    Rel.fold (fun a b r -> Rel.add a b r) d_inp_strong prev.inp_strong
  in
  ( { obs; inp; inp_strong },
    { d_obs; d_inp = Rel.to_list d_inp; d_inp_strong = Rel.to_list d_inp_strong }
  )

let conflict h rel a b =
  a <> b
  &&
  match History.common_op_schedule_id h a b with
  | -1 -> Rel.mem a b rel.obs || Rel.mem b a rel.obs
  | s -> History.conflicts h s a b

let conflict_pairs h rel members =
  let elts = Int_set.elements members in
  let rec go acc = function
    | [] -> List.rev acc
    | a :: rest ->
      let acc =
        List.fold_left
          (fun acc b -> if conflict h rel a b then (a, b) :: acc else acc)
          acc rest
      in
      go acc rest
  in
  go [] elts
