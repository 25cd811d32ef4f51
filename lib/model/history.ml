open Repro_order
open Ids

type sched_id = int

type node = {
  id : id;
  label : Label.t;
  parent : id option;
  children : id list;
  sched : sched_id option;
  intra_weak : Rel.t;
  intra_strong : Rel.t;
}

type schedule = {
  sid : sched_id;
  sname : string;
  conflict : Conflict.spec;
  transactions : Int_set.t;
  weak_in : Rel.t;
  strong_in : Rel.t;
  weak_out : Rel.t;
  strong_out : Rel.t;
  log : id list;
}

(* Per-history memoization of the conflict predicate (see [conflicts]):
   operations get a dense index within their schedule, and each schedule
   lazily fills a symmetric triangular bitmatrix of conflict decisions —
   one "known" bit and one "value" bit per unordered pair.  The
   observed-order fixpoint probes the same pairs over and over (every
   propagation round re-examines every observed pair), so the label
   interpretation must run at most once per pair.  Each schedule's spec is
   compiled once ([Conflict.compile]) when the cache is built, so the fill
   itself is a dense matrix probe, never a list re-interpretation.

   The cache is created on first use and is invisible in the interface;
   histories remain semantically immutable.  It is not domain-safe: the
   batch drivers give each domain its own history values. *)
type ccache = {
  op_index : int array; (* node id -> index among its schedule's ops; -1 *)
  op_sched : int array; (* node id -> schedule it is an operation of; -1 *)
  op_count : int array; (* per schedule: number of operations *)
  compiled : Conflict.compiled array; (* per schedule: compiled spec *)
  floors : int array;
      (* per schedule: ranks below this are released — their memo rows were
         dropped by [memo_release] and those pairs evaluate uncached.  The
         triangular tables index by {e windowed} rank (absolute rank minus
         floor), so releasing a prefix actually frees its bytes instead of
         leaving a dead lower triangle in place. *)
  tables : (Bytes.t * Bytes.t) option array; (* per schedule: known, value *)
  decided : int array;
      (* per schedule: "known" bits set in its table, kept in step as
         [conflicts] fills it, so [memo_stats] never popcounts *)
  mutable donated : bool;
      (* arrays and tables lent to one extension's cache (see
         [extend_cache]); a second extension of the same snapshot must
         deep-copy its share instead *)
}

(* The converse of each closed order of one schedule.  Closing a new pair
   [(a, b)] into a closed order needs the predecessors of [a], and
   [Rel.preds] scans the whole relation; an extension chain keeps these
   beside the orders instead (see [extend]). *)
type conv = {
  cweak_in : Rel.t;
  cstrong_in : Rel.t;
  cweak_out : Rel.t;
  cstrong_out : Rel.t;
}

type t = {
  nodes : node array;
  scheds : schedule array;
  levels : int array; (* per schedule, Def. 9 *)
  ig : Rel.t; (* invocation graph over schedule ids *)
  log_out : bool array;
      (* per schedule: its weak output order was derived from its log
         (no explicit output pair was declared), so an extension derives
         the pairs of new log entries too *)
  mutable conv : conv array option;
      (* per schedule; built on the first [extend] of this history and
         carried along the extension chain, never by [Builder.seal] *)
  mutable ccache : ccache option;
}

let empty () =
  { nodes = [||]; scheds = [||]; levels = [||]; ig = Rel.empty; log_out = [||];
    conv = None; ccache = None }

let node h i = h.nodes.(i)

let schedule h s = h.scheds.(s)

let n_nodes h = Array.length h.nodes

let n_schedules h = Array.length h.scheds

let schedules h = Array.to_list h.scheds

let label h i = h.nodes.(i).label

let parent h i = h.nodes.(i).parent

let parent_tx h i = match h.nodes.(i).parent with Some p -> p | None -> i

let children h i = h.nodes.(i).children

let is_leaf h i = h.nodes.(i).sched = None

let is_root h i = h.nodes.(i).parent = None

let roots h =
  Array.to_list h.nodes
  |> List.filter_map (fun n -> if n.parent = None then Some n.id else None)

let leaves h =
  Array.to_list h.nodes
  |> List.filter_map (fun n -> if n.sched = None then Some n.id else None)

let internal_nodes h =
  Array.to_list h.nodes
  |> List.filter_map (fun n ->
         if n.sched <> None && n.parent <> None then Some n.id else None)

let sched_of_tx h i = h.nodes.(i).sched

let sched_of_op h i =
  match h.nodes.(i).parent with None -> None | Some p -> h.nodes.(p).sched

let cache h =
  match h.ccache with
  | Some c -> c
  | None ->
    let n = Array.length h.nodes and ns = Array.length h.scheds in
    let op_index = Array.make n (-1) in
    let op_sched = Array.make n (-1) in
    let op_count = Array.make ns 0 in
    (* Ranks are assigned in ascending node-id order — NOT in the
       schedules' transaction-traversal order.  Under the monitor's
       extension contract new nodes always take larger ids, so id-ordered
       ranks of shared operations never shift, whatever transaction the
       new operations hang under; that is what lets [extend_cache] carry
       the triangular tables across every extension (a traversal-ordered
       rank shifts as soon as an operation is appended to a non-final
       transaction). *)
    for v = 0 to n - 1 do
      match h.nodes.(v).parent with
      | None -> ()
      | Some p -> (
        match h.nodes.(p).sched with
        | None -> ()
        | Some s ->
          op_index.(v) <- op_count.(s);
          op_sched.(v) <- s;
          op_count.(s) <- op_count.(s) + 1)
    done;
    let c =
      {
        op_index;
        op_sched;
        op_count;
        compiled = Array.map (fun s -> Conflict.compile s.conflict) h.scheds;
        floors = Array.make ns 0;
        tables = Array.make ns None;
        decided = Array.make ns 0;
        donated = false;
      }
    in
    h.ccache <- Some c;
    c

let compiled_spec h s = (cache h).compiled.(s)

let common_op_schedule_id h a b =
  let c = cache h in
  let sa = c.op_sched.(a) in
  if sa >= 0 && sa = c.op_sched.(b) then sa else -1

let common_op_schedule h a b =
  match common_op_schedule_id h a b with -1 -> None | s -> Some s

let ops_of_schedule h s =
  Int_set.fold
    (fun t acc -> List.rev_append (List.rev h.nodes.(t).children) acc)
    h.scheds.(s).transactions []
  |> List.rev

type pair_source = Index | Scan

(* Under extension every new pair of a closed order has an endpoint at or
   above [n_old].  With the converse index a new node [v] yields its
   successors and its predecessors below [n_old], so each new pair is met
   exactly once, from its source if that is new and from its target
   otherwise.  Without it (a [Builder.seal] history) every schedule's
   operations and transactions are walked, and each old source is probed
   with an allocation-free max-element check before any split. *)
let new_pairs h ~n_old ~weak_out ~weak_in ~strong_in =
  match h.conv with
  | Some conv ->
    let around r c f v =
      Int_set.iter (fun w -> f v w) (Rel.succs r v);
      Int_set.iter (fun u -> if u < n_old then f u v) (Rel.succs c v)
    in
    for v = n_old to Array.length h.nodes - 1 do
      let nd = h.nodes.(v) in
      (match nd.parent with
      | Some p -> (
        match h.nodes.(p).sched with
        | Some s -> around h.scheds.(s).weak_out conv.(s).cweak_out (weak_out s) v
        | None -> ())
      | None -> ());
      match nd.sched with
      | Some s ->
        let sc = h.scheds.(s) and cv = conv.(s) in
        around sc.weak_in cv.cweak_in (weak_in s) v;
        around sc.strong_in cv.cstrong_in (strong_in s) v
      | None -> ()
    done;
    Index
  | None ->
    Array.iter
      (fun s ->
        let tail rel f o =
          let ss = Rel.succs rel o in
          if o >= n_old then Int_set.iter (f o) ss
          else if (not (Int_set.is_empty ss)) && Int_set.max_elt ss >= n_old then begin
            let _, _, news = Int_set.split (n_old - 1) ss in
            Int_set.iter (f o) news
          end
        in
        let wo = weak_out s.sid and wi = weak_in s.sid and si = strong_in s.sid in
        let op o = tail s.weak_out wo o in
        Int_set.iter
          (fun t ->
            tail s.weak_in wi t;
            tail s.strong_in si t;
            List.iter op h.nodes.(t).children)
          s.transactions)
      h.scheds;
    Scan

let conflicts_uncached h s a b =
  if parent h a = parent h b then false
  else Conflict.eval h.scheds.(s).conflict ~get_label:(label h) a b

let conflicts h s a b =
  if parent h a = parent h b then false
  else begin
    let c = cache h in
    if
      c.op_sched.(a) <> s || c.op_sched.(b) <> s
      || c.op_index.(a) < c.floors.(s)
      || c.op_index.(b) < c.floors.(s)
    then
      (* Not a pair of [s]'s operations, or at least one endpoint's memo
         row was released by [memo_release]: evaluate directly.  (Callers
         that respect the Def. 10/11 side conditions only take the first
         branch for cross-schedule probes; the second is the truncated
         monitor touching a boundary pair, which is rare by design.) *)
      Conflict.probe_ids c.compiled.(s) ~get_label:(label h) a b
    else begin
      let floor = c.floors.(s) in
      let known, value =
        match c.tables.(s) with
        | Some kv -> kv
        | None ->
          let m = c.op_count.(s) - floor in
          let bytes = max 1 (((m * (m - 1) / 2) + 7) / 8) in
          let kv = (Bytes.make bytes '\000', Bytes.make bytes '\000') in
          c.tables.(s) <- Some kv;
          kv
      in
      let ia = c.op_index.(a) - floor and ib = c.op_index.(b) - floor in
      let lo = min ia ib and hi = max ia ib in
      let bit = (hi * (hi - 1) / 2) + lo in
      let byte = bit lsr 3 and mask = 1 lsl (bit land 7) in
      if Char.code (Bytes.unsafe_get known byte) land mask <> 0 then
        Char.code (Bytes.unsafe_get value byte) land mask <> 0
      else begin
        let v = Conflict.probe_ids c.compiled.(s) ~get_label:(label h) a b in
        Bytes.unsafe_set known byte
          (Char.unsafe_chr (Char.code (Bytes.unsafe_get known byte) lor mask));
        c.decided.(s) <- c.decided.(s) + 1;
        if v then
          Bytes.unsafe_set value byte
            (Char.unsafe_chr (Char.code (Bytes.unsafe_get value byte) lor mask));
        v
      end
    end
  end

let popcount =
  let per_byte =
    Array.init 256 (fun b ->
        let rec go b acc = if b = 0 then acc else go (b lsr 1) (acc + (b land 1)) in
        go b 0)
  in
  fun bytes ->
    let n = ref 0 in
    Bytes.iter (fun c -> n := !n + per_byte.(Char.code c)) bytes;
    !n

(* Carry a previous snapshot's conflict memo into an extension of it.  The
   monitor certifies a growing prefix: each snapshot repeats every node of
   the previous one (same ids, labels, parents, children lists that only
   grow) and appends new nodes with strictly larger ids.  [cache] ranks
   operations in ascending id order, so every shared operation keeps its
   rank in the extension — even when new operations hang under old
   transactions — and the triangular layout ([bit (hi, lo) =
   hi*(hi-1)/2 + lo]) puts every old pair at the same slot, with all old
   slots packed below [m_old*(m_old-1)/2].

   That prefix property is what makes the transfer O(delta) amortized
   instead of O(n) per append: along a linear extension chain (the
   monitor's shape) the dense rank arrays and the tables are {e lent} to
   the extension — the new cache indexes the new operations into the very
   same arrays (ids >= n_old are dead to [from]) and keeps the same table
   bytes, growing either geometrically when capacity runs out.  Lending is
   linear: the first extension flips [donated], and a second extension of
   the same snapshot (the monitor's undo-then-reappend fork) deep-copies
   the old prefix instead, so diverging extensions can never write into
   each other's slots.  [op_count] is always copied — it is the record of
   [from]'s own rank range, needed to bound a later fork's copy — and so
   is [decided], except on a fork: the copied prefix may hold bits the
   abandoned extension decided among old operations through the shared
   tables, so a fork recounts what it copied.

   No-op when [h] already has a cache (both caches memoize the same pure
   predicate, so nothing would be gained) or when [from] has none. *)
let extend_cache ~from h =
  let n_old = Array.length from.nodes and n = Array.length h.nodes in
  if n < n_old then
    invalid_arg "History.extend_cache: target has fewer nodes than source";
  if Array.length h.scheds <> Array.length from.scheds then
    invalid_arg "History.extend_cache: schedule counts differ";
  match (from.ccache, h.ccache) with
  | None, _ | _, Some _ -> ()
  | Some old, None ->
    let fork = old.donated in
    old.donated <- true;
    (* Valid prefix of each table in bits: [from]'s own pairs only.  A
       lent table may carry the extension's bits above this range; a
       forked copy must not inherit them (its new operations reuse the
       same slots for different labels).  Ranks below the schedule's
       floor were released and the table indexes by windowed rank, so
       the prefix is the windowed pair count. *)
    let prefix_bits sid =
      let m = old.op_count.(sid) - old.floors.(sid) in
      m * (m - 1) / 2
    in
    let copy_prefix src bits =
      let bytes = Bytes.make (max 1 ((bits + 7) / 8)) '\000' in
      Bytes.blit src 0 bytes 0 (bits / 8);
      if bits land 7 <> 0 then
        Bytes.set bytes (bits / 8)
          (Char.chr (Char.code (Bytes.get src (bits / 8)) land ((1 lsl (bits land 7)) - 1)));
      bytes
    in
    let op_index, op_sched =
      if (not fork) && Array.length old.op_index >= n then
        (old.op_index, old.op_sched)
      else begin
        (* A fork is a fresh copy, not amortized growth of the lineage: it
           must size to the extension, never double the source's capacity
           (along an extend/undo/extend chain each accepted fork becomes
           the next source, and doubling here compounds exponentially). *)
        let cap = if fork then n else max n (2 * Array.length old.op_index) in
        let oi = Array.make cap (-1) and os = Array.make cap (-1) in
        Array.blit old.op_index 0 oi 0 n_old;
        Array.blit old.op_sched 0 os 0 n_old;
        (oi, os)
      end
    in
    let op_count = Array.copy old.op_count in
    let floors = Array.copy old.floors in
    for v = n_old to n - 1 do
      (match h.nodes.(v).parent with
      | None -> op_index.(v) <- -1; op_sched.(v) <- -1
      | Some p -> (
        match h.nodes.(p).sched with
        | None -> op_index.(v) <- -1; op_sched.(v) <- -1
        | Some s ->
          op_index.(v) <- op_count.(s);
          op_sched.(v) <- s;
          op_count.(s) <- op_count.(s) + 1))
    done;
    let tables =
      if fork then
        Array.mapi
          (fun sid kv ->
            match kv with
            | None -> None
            | Some (oknown, ovalue) ->
              let bits = prefix_bits sid in
              Some (copy_prefix oknown bits, copy_prefix ovalue bits))
          old.tables
      else old.tables
    in
    let decided =
      if fork then
        Array.map (function None -> 0 | Some (known, _) -> popcount known) tables
      else Array.copy old.decided
    in
    (* Grow any lent or copied table whose capacity no longer covers the
       extension's pair range (geometric, so a streaming chain amortizes
       the reallocation over the appends that filled the capacity). *)
    Array.iteri
      (fun sid kv ->
        match kv with
        | None -> ()
        | Some (known, value) ->
          let m = op_count.(sid) - floors.(sid) in
          let need = max 1 (((m * (m - 1) / 2) + 7) / 8) in
          if need > Bytes.length known then begin
            let cap = max need (2 * Bytes.length known) in
            let grow src =
              let bytes = Bytes.make cap '\000' in
              Bytes.blit src 0 bytes 0 (Bytes.length src);
              bytes
            in
            tables.(sid) <- Some (grow known, grow value)
          end)
      tables;
    (* Specs are recompiled from the extension's own schedules: along a
       stream an [Explicit] pair list may grow with the appended text, and
       compiling is O(spec size) — noise next to the table transfer. *)
    let compiled = Array.map (fun s -> Conflict.compile s.conflict) h.scheds in
    h.ccache <-
      Some
        { op_index; op_sched; op_count; compiled; floors; tables; decided;
          donated = false }

(* Introspection: how much of the conflict-pair space the memo has decided.
   The total counts one slot per unordered pair of same-schedule operations
   (the triangular bitmatrix layout); the known count is the sum of the
   [decided] counters, so a monitored append's gauges cost O(schedules).
   No memo yet means nothing decided. *)
let memo_stats h =
  let pairs m = m * (m - 1) / 2 in
  match h.ccache with
  | Some c ->
    ( Array.fold_left ( + ) 0 c.decided,
      Array.fold_left (fun acc m -> acc + pairs m) 0 c.op_count )
  | None ->
    ( 0,
      Array.fold_left
        (fun acc (s : schedule) ->
          acc
          + pairs
              (Int_set.fold
                 (fun t acc -> acc + List.length h.nodes.(t).children)
                 s.transactions 0))
        0 h.scheds )

let memo_popcount h =
  match h.ccache with
  | None -> 0
  | Some c ->
    Array.fold_left
      (fun acc -> function None -> acc | Some (known, _) -> acc + popcount known)
      0 c.tables

(* Release every schedule's memo rows: raise the floor to the current
   operation count and drop the triangular tables.  Pairs wholly below
   the floor evaluate uncached from then on; pairs among operations
   appended {e after} the release re-memoize in fresh, windowed tables
   (see [floors] and [conflicts]).  The engine calls this when it folds a
   certified prefix — the released pairs belong to the folded region and
   are re-probed at most on its boundary.  Forcing the cache first makes
   release idempotent and keeps a later [extend_cache] carrying the
   floors forward. *)
let memo_release h =
  let c = cache h in
  Array.iteri
    (fun s _ ->
      c.floors.(s) <- c.op_count.(s);
      c.tables.(s) <- None;
      c.decided.(s) <- 0)
    c.tables

(* Bytes held by the allocated memo planes — the cheap memory-accounting
   probe ([memo_stats] counts decided pairs, not storage). *)
let memo_bytes h =
  match h.ccache with
  | None -> 0
  | Some c ->
    Array.fold_left
      (fun acc -> function
        | None -> acc
        | Some (k, v) -> acc + Bytes.length k + Bytes.length v)
      0 c.tables

let descendants h i =
  let rec go acc = function
    | [] -> acc
    | x :: rest -> go (Int_set.add x acc) (List.rev_append h.nodes.(x).children rest)
  in
  go Int_set.empty h.nodes.(i).children

let composite_transaction h r =
  if not (is_root h r) then invalid_arg "History.composite_transaction: not a root";
  Int_set.add r (descendants h r)

let invocation_graph h = h.ig

let level h s = h.levels.(s)

let order h = Array.fold_left max 0 h.levels

let level_of_node h i =
  match h.nodes.(i).sched with None -> 0 | Some s -> h.levels.(s)

let schedules_at_level h l =
  Array.to_list h.scheds
  |> List.filter_map (fun s -> if h.levels.(s.sid) = l then Some s.sid else None)

let pp_node h ppf i = Fmt.pf ppf "%a#%d" Label.pp h.nodes.(i).label i

let pp_node_sched h ppf i =
  (* The owning schedule: the one the node is an operation of; a root is
     nobody's operation, so fall back to the schedule it is a transaction
     of.  Leaves always have an owner, so the bare fallback never fires. *)
  match (sched_of_op h i, sched_of_tx h i) with
  | Some s, _ | None, Some s ->
    Fmt.pf ppf "%a@@%s" (pp_node h) i h.scheds.(s).sname
  | None, None -> pp_node h ppf i

let pp ppf h =
  let pp_rel_named name ppf r =
    if not (Rel.is_empty r) then Fmt.pf ppf "@ %s: %a" name Rel.pp r
  in
  Array.iter
    (fun s ->
      Fmt.pf ppf "@[<v 2>schedule %s (level %d, conflict %a)%a%a%a%a@ txs: %a@]@."
        s.sname h.levels.(s.sid) Conflict.pp s.conflict
        (pp_rel_named "weak-in") s.weak_in (pp_rel_named "strong-in") s.strong_in
        (pp_rel_named "weak-out") s.weak_out (pp_rel_named "strong-out")
        s.strong_out Ids.pp_set s.transactions)
    h.scheds;
  let rec pp_tree ppf i =
    let n = h.nodes.(i) in
    match n.children with
    | [] -> pp_node h ppf i
    | cs ->
      Fmt.pf ppf "@[<v 2>%a@ %a@]" (pp_node h) i
        (Fmt.list ~sep:Fmt.cut pp_tree) cs
  in
  List.iter (fun r -> Fmt.pf ppf "%a@." pp_tree r) (roots h)

(* ------------------------------------------------------------------ *)
(* Builder                                                             *)
(* ------------------------------------------------------------------ *)

module Builder = struct
  type history = t

  type bnode = {
    bid : id;
    blabel : Label.t;
    bparent : id option;
    mutable bchildren : id list; (* reversed *)
    bsched : sched_id option;
    mutable bintra_weak : Rel.t;
    mutable bintra_strong : Rel.t;
  }

  type bsched = {
    bsid : sched_id;
    bsname : string;
    bconflict : Conflict.spec;
    mutable btxs : Int_set.t;
    mutable bweak_in : Rel.t;
    mutable bstrong_in : Rel.t;
    mutable bweak_out : Rel.t;
    mutable bstrong_out : Rel.t;
    mutable blog : id list;
  }

  type t = {
    base : history;
        (* The sealed history an [extend] builder grows ([create]: the
           empty history).  It is only read: the first change to one of its
           nodes or schedules opens an overlay record in [bnodes] /
           [bscheds], whose relation fields collect just the delta. *)
    delta : bool; (* opened by [extend]: [seal] completes only the delta *)
    bnodes : (id, bnode) Hashtbl.t;
    bscheds : (sched_id, bsched) Hashtbl.t;
    mutable next_node : int;
    mutable next_sched : int;
  }

  let create () =
    { base = empty (); delta = false; bnodes = Hashtbl.create 64;
      bscheds = Hashtbl.create 8; next_node = 0; next_sched = 0 }

  let on h =
    { base = h; delta = true; bnodes = Hashtbl.create 64;
      bscheds = Hashtbl.create 8; next_node = Array.length h.nodes;
      next_sched = Array.length h.scheds }

  let get_node b i =
    match Hashtbl.find_opt b.bnodes i with
    | Some n -> n
    | None when i >= 0 && i < Array.length b.base.nodes ->
      let o = b.base.nodes.(i) in
      let n =
        { bid = i; blabel = o.label; bparent = o.parent;
          bchildren = List.rev o.children; bsched = o.sched;
          bintra_weak = Rel.empty; bintra_strong = Rel.empty }
      in
      Hashtbl.replace b.bnodes i n;
      n
    | None -> invalid_arg (Fmt.str "History.Builder: unknown node %d" i)

  let get_sched b s =
    match Hashtbl.find_opt b.bscheds s with
    | Some s -> s
    | None when s >= 0 && s < Array.length b.base.scheds ->
      let o = b.base.scheds.(s) in
      let sc =
        { bsid = s; bsname = o.sname; bconflict = o.conflict;
          btxs = o.transactions; bweak_in = Rel.empty; bstrong_in = Rel.empty;
          bweak_out = Rel.empty; bstrong_out = Rel.empty; blog = o.log }
      in
      Hashtbl.replace b.bscheds s sc;
      sc
    | None -> invalid_arg (Fmt.str "History.Builder: unknown schedule %d" s)

  let schedule b ?(conflict = Conflict.Rw) sname =
    let bsid = b.next_sched in
    b.next_sched <- bsid + 1;
    Hashtbl.replace b.bscheds bsid
      {
        bsid;
        bsname = sname;
        bconflict = conflict;
        btxs = Int_set.empty;
        bweak_in = Rel.empty;
        bstrong_in = Rel.empty;
        bweak_out = Rel.empty;
        bstrong_out = Rel.empty;
        blog = [];
      };
    bsid

  let fresh_node b blabel bparent bsched =
    let bid = b.next_node in
    b.next_node <- bid + 1;
    let n =
      {
        bid;
        blabel;
        bparent;
        bchildren = [];
        bsched;
        bintra_weak = Rel.empty;
        bintra_strong = Rel.empty;
      }
    in
    Hashtbl.replace b.bnodes bid n;
    (match bparent with
    | Some p ->
      let pn = get_node b p in
      pn.bchildren <- bid :: pn.bchildren
    | None -> ());
    (match bsched with
    | Some s ->
      let sc = get_sched b s in
      sc.btxs <- Int_set.add bid sc.btxs
    | None -> ());
    bid

  let root b ~sched lbl =
    ignore (get_sched b sched);
    fresh_node b lbl None (Some sched)

  let tx b ~parent ~sched lbl =
    ignore (get_sched b sched);
    let pn = get_node b parent in
    if pn.bsched = None then invalid_arg "History.Builder.tx: parent is a leaf";
    fresh_node b lbl (Some parent) (Some sched)

  let leaf b ~parent lbl =
    let pn = get_node b parent in
    if pn.bsched = None then invalid_arg "History.Builder.leaf: parent is a leaf";
    fresh_node b lbl (Some parent) None

  (* The schedule of which node [i] is an operation. *)
  let op_sched b i =
    match (get_node b i).bparent with
    | None -> None
    | Some p -> (get_node b p).bsched

  let common_sched_exn b what a b' =
    match (op_sched b a, op_sched b b') with
    | Some sa, Some sb when sa = sb -> get_sched b sa
    | _ ->
      invalid_arg
        (Fmt.str "History.Builder.%s: %d and %d are not operations of one schedule"
           what a b')

  let distinct what a b' =
    if a = b' then
      invalid_arg (Fmt.str "History.Builder.%s: %d ordered against itself" what a)

  let weak_out b ~a ~b:b' =
    distinct "weak_out" a b';
    let s = common_sched_exn b "weak_out" a b' in
    s.bweak_out <- Rel.add a b' s.bweak_out

  let strong_out b ~a ~b:b' =
    distinct "strong_out" a b';
    let s = common_sched_exn b "strong_out" a b' in
    s.bstrong_out <- Rel.add a b' s.bstrong_out;
    s.bweak_out <- Rel.add a b' s.bweak_out

  let intra_pair b what a b' =
    let na = get_node b a and nb = get_node b b' in
    match (na.bparent, nb.bparent) with
    | Some pa, Some pb when pa = pb -> get_node b pa
    | _ -> invalid_arg (Fmt.str "History.Builder.%s: %d and %d are not siblings" what a b')

  let intra_weak b ~a ~b:b' =
    distinct "intra_weak" a b';
    let p = intra_pair b "intra_weak" a b' in
    p.bintra_weak <- Rel.add a b' p.bintra_weak

  let intra_strong b ~a ~b:b' =
    distinct "intra_strong" a b';
    let p = intra_pair b "intra_strong" a b' in
    p.bintra_strong <- Rel.add a b' p.bintra_strong;
    p.bintra_weak <- Rel.add a b' p.bintra_weak

  let root_sched_exn b what a b' =
    let na = get_node b a and nb = get_node b b' in
    if na.bparent <> None || nb.bparent <> None then
      invalid_arg (Fmt.str "History.Builder.%s: %d and %d must be roots" what a b');
    match (na.bsched, nb.bsched) with
    | Some sa, Some sb when sa = sb -> get_sched b sa
    | _ ->
      invalid_arg
        (Fmt.str "History.Builder.%s: %d and %d are not roots of one schedule" what a b')

  let input_weak b ~a ~b:b' =
    distinct "input_weak" a b';
    let s = root_sched_exn b "input_weak" a b' in
    s.bweak_in <- Rel.add a b' s.bweak_in

  let input_strong b ~a ~b:b' =
    distinct "input_strong" a b';
    let s = root_sched_exn b "input_strong" a b' in
    s.bstrong_in <- Rel.add a b' s.bstrong_in;
    s.bweak_in <- Rel.add a b' s.bweak_in

  let log b ~sched entries =
    let s = get_sched b sched in
    s.blog <- entries

  (* --- seal ------------------------------------------------------- *)

  let build_ig b =
    let ig = ref Rel.empty in
    Hashtbl.iter
      (fun _ n ->
        match (n.bsched, n.bparent) with
        | Some s, Some p -> (
          match (Hashtbl.find b.bnodes p).bsched with
          | Some ps ->
            if ps = s then
              invalid_arg "History.Builder.seal: schedule invokes itself";
            ig := Rel.add ps s !ig
          | None -> assert false)
        | _ -> ())
      b.bnodes;
    !ig

  let compute_levels n ig =
    let levels = Array.make n 0 in
    let sched_ids = List.init n (fun i -> i) in
    match Rel.topo_sort ~nodes:(Int_set.of_list sched_ids) ig with
    | None -> invalid_arg "History.Builder.seal: recursive invocation graph"
    | Some order ->
      (* Longest path: process in reverse topological order. *)
      List.iter
        (fun s ->
          let succ_max =
            Int_set.fold (fun s' m -> max m levels.(s')) (Rel.succs ig s) 0
          in
          levels.(s) <- succ_max + 1)
        (List.rev order);
      levels

  (* A log must be a permutation of its schedule's operations [ops]. *)
  let check_log sname ops log =
    let logged = Int_set.of_list log in
    if (not (Int_set.equal ops logged)) || List.length log <> Int_set.cardinal logged then
      invalid_arg
        (Fmt.str
           "History.Builder.seal: log of schedule %s is not a permutation of its operations"
           sname)

  let seal_fresh b =
    let nnodes = b.next_node and nscheds = b.next_sched in
    let bnode i = Hashtbl.find b.bnodes i in
    let bsched s = Hashtbl.find b.bscheds s in
    let ig = build_ig b in
    let levels = compute_levels nscheds ig in
    (* Validate logs: each must be a permutation of the schedule's ops. *)
    Hashtbl.iter
      (fun _ s ->
        if s.blog <> [] then
          check_log s.bsname
            (Int_set.fold
               (fun t acc ->
                 List.fold_left (fun acc c -> Int_set.add c acc) acc (bnode t).bchildren)
               s.btxs Int_set.empty)
            s.blog)
      b.bscheds;
    let get_label i = (bnode i).blabel in
    (* Order completion probes every conflicting pair of each schedule;
       compile each spec once so the loops below never re-interpret a
       list.  Lazy: schedules without logs or input orders never pay it. *)
    let compiled = Hashtbl.create 8 in
    let compiled_of s =
      match Hashtbl.find_opt compiled s.bsid with
      | Some c -> c
      | None ->
        let c = Conflict.compile s.bconflict in
        Hashtbl.add compiled s.bsid c;
        c
    in
    let conflict_in s a b' =
      let na = bnode a and nb = bnode b' in
      if na.bparent = nb.bparent then false
      else Conflict.probe_ids (compiled_of s) ~get_label a b'
    in
    let log_out = Array.make nscheds false in
    (* Process schedules from the highest level down, completing output
       orders (Def. 3) and pushing them to invoked schedules' input orders
       (Def. 4.7). *)
    let by_level =
      List.sort
        (fun s1 s2 -> compare levels.(s2) levels.(s1))
        (List.init nscheds (fun i -> i))
    in
    List.iter
      (fun sid ->
        let s = bsched sid in
        (* 0. Close the input orders first: every client (strictly higher
           level) has already pushed its pairs, and obligations derived below
           must see their transitive consequences (e.g. orders composing
           across two clients of a shared schedule). *)
        s.bstrong_in <- Rel.transitive_closure s.bstrong_in;
        s.bweak_in <- Rel.transitive_closure (Rel.union s.bweak_in s.bstrong_in);
        (* 1. Derive a minimal weak output order from the log, if present and
           nothing explicit was given: log order on conflicting pairs of
           different transactions. *)
        if s.blog <> [] && Rel.is_empty s.bweak_out then begin
          log_out.(sid) <- true;
          let rec pairs = function
            | [] -> ()
            | o :: rest ->
              List.iter
                (fun o' ->
                  if conflict_in s o o' then s.bweak_out <- Rel.add o o' s.bweak_out)
                rest;
              pairs rest
          in
          pairs s.blog
        end;
        (* 2. Output orders extend intra-transaction orders (Def. 3.2). *)
        Int_set.iter
          (fun t ->
            let n = bnode t in
            s.bweak_out <- Rel.union s.bweak_out n.bintra_weak;
            s.bstrong_out <- Rel.union s.bstrong_out n.bintra_strong)
          s.btxs;
        (* 3. Conflicting operations of weakly-input-ordered transactions
           follow the input order (Def. 3.1a). *)
        Rel.iter
          (fun t t' ->
            List.iter
              (fun o ->
                List.iter
                  (fun o' ->
                    if conflict_in s o o' then s.bweak_out <- Rel.add o o' s.bweak_out)
                  (bnode t').bchildren)
              (bnode t).bchildren)
          s.bweak_in;
        (* 4. Strong input orders expand to strong output orders over all
           operation pairs (Def. 3.3). *)
        Rel.iter
          (fun t t' ->
            List.iter
              (fun o ->
                List.iter
                  (fun o' -> s.bstrong_out <- Rel.add o o' s.bstrong_out)
                  (bnode t').bchildren)
              (bnode t).bchildren)
          s.bstrong_in;
        (* 5. Strong is contained in weak (Def. 3.4); close transitively. *)
        s.bstrong_out <- Rel.transitive_closure s.bstrong_out;
        s.bweak_out <- Rel.transitive_closure (Rel.union s.bweak_out s.bstrong_out);
        (* 6. Push output orders down as input orders (Def. 4.7). *)
        let push rel strong =
          Rel.iter
            (fun o o' ->
              match ((bnode o).bsched, (bnode o').bsched) with
              | Some c, Some c' when c = c' ->
                let cs = bsched c in
                if strong then cs.bstrong_in <- Rel.add o o' cs.bstrong_in
                else cs.bweak_in <- Rel.add o o' cs.bweak_in
              | _ -> ())
            rel
        in
        push s.bweak_out false;
        push s.bstrong_out true)
      by_level;
    (* Close input orders. *)
    Hashtbl.iter
      (fun _ s ->
        s.bstrong_in <- Rel.transitive_closure s.bstrong_in;
        s.bweak_in <- Rel.transitive_closure (Rel.union s.bweak_in s.bstrong_in))
      b.bscheds;
    let nodes =
      Array.init nnodes (fun i ->
          let n = bnode i in
          {
            id = n.bid;
            label = n.blabel;
            parent = n.bparent;
            children = List.rev n.bchildren;
            sched = n.bsched;
            intra_weak = Rel.transitive_closure n.bintra_weak;
            intra_strong = Rel.transitive_closure n.bintra_strong;
          })
    in
    let scheds =
      Array.init nscheds (fun i ->
          let s = bsched i in
          {
            sid = s.bsid;
            sname = s.bsname;
            conflict = s.bconflict;
            transactions = s.btxs;
            weak_in = s.bweak_in;
            strong_in = s.bstrong_in;
            weak_out = s.bweak_out;
            strong_out = s.bstrong_out;
            log = s.blog;
          })
    in
    { nodes; scheds; levels; ig; log_out; conv = None; ccache = None }

  (* One closed order of a schedule while an extension grows it: the
     relation, its converse, and the pairs the extension added. *)
  type growing = {
    what : string; (* "weak input", ...: names the order in a refusal *)
    gsname : string;
    mutable r : Rel.t;
    mutable c : Rel.t;
    mutable added : (id * id) list;
  }

  let not_an_extension fmt =
    Fmt.kstr (fun m -> invalid_arg ("not an extension: " ^ m)) fmt

  (* The extension contract: an extension adds no pair between two nodes
     the extended history already had. *)
  let old_pair what x y =
    not_an_extension "the %t would gain %d < %d, two nodes of the extended history" what x y

  (* Add [(a, b)] to the closed [g] and keep it closed: on a transitively
     closed relation, the new pairs are exactly ({a} ∪ preds a) ×
     ({b} ∪ succs b). *)
  let grow ~n_old g a b' =
    if not (Rel.mem a b' g.r) then begin
      let xs = Int_set.add a (Rel.succs g.c a) and ys = Int_set.add b' (Rel.succs g.r b') in
      Int_set.iter
        (fun x ->
          Int_set.iter
            (fun y ->
              if not (Rel.mem x y g.r) then begin
                if x < n_old && y < n_old then
                  old_pair (fun ppf -> Fmt.pf ppf "%s order of schedule %s" g.what g.gsname) x y;
                g.r <- Rel.add x y g.r;
                g.c <- Rel.add y x g.c;
                g.added <- (x, y) :: g.added
              end)
            ys)
        xs
    end

  let conv_of (s : schedule) =
    { cweak_in = Rel.inverse s.weak_in; cstrong_in = Rel.inverse s.strong_in;
      cweak_out = Rel.inverse s.weak_out; cstrong_out = Rel.inverse s.strong_out }

  (* [seal_fresh]'s rules applied to the delta of an [on] builder, highest
     level first.  Every relation of the base is closed, so the new closed
     relations are the old ones grown by the new generating pairs:
     explicit pairs, the intra pairs and log pairs of new nodes and
     entries, the input-order expansions of new input pairs and of old
     transactions that gained operations, and the pushes of new output
     pairs.  The base is never written (only its converse index is filled
     in, once), so a refusal leaves it exactly as it was. *)
  let seal_delta b =
    let h0 = b.base in
    let n_old = Array.length h0.nodes and ns_old = Array.length h0.scheds in
    let n = b.next_node and ns = b.next_sched in
    let grow = grow ~n_old in
    (* 1. Nodes: the base's, then the new ones; old nodes that gained
       children or intra pairs get new records. *)
    let close_intra rel = if Rel.is_empty rel then rel else Rel.transitive_closure rel in
    let finish bn =
      { id = bn.bid; label = bn.blabel; parent = bn.bparent;
        children = List.rev bn.bchildren; sched = bn.bsched;
        intra_weak = close_intra bn.bintra_weak;
        intra_strong = close_intra bn.bintra_strong }
    in
    let nodes =
      Array.append h0.nodes
        (Array.init (n - n_old) (fun k -> finish (Hashtbl.find b.bnodes (n_old + k))))
    in
    let grown = Array.make ns [] (* per schedule: old transactions with new children *) in
    let intra_w = Array.make ns [] and intra_s = Array.make ns [] in
    Hashtbl.iter
      (fun i bn ->
        (match bn.bsched with
        | Some s ->
          if not (Rel.is_empty bn.bintra_weak) then intra_w.(s) <- bn.bintra_weak :: intra_w.(s);
          if not (Rel.is_empty bn.bintra_strong) then intra_s.(s) <- bn.bintra_strong :: intra_s.(s)
        | None -> ());
        if i < n_old then begin
          let o = h0.nodes.(i) in
          let gained = match bn.bchildren with c :: _ -> c >= n_old | [] -> false in
          if gained then
            Option.iter (fun s -> grown.(s) <- i :: grown.(s)) o.sched;
          if gained || not (Rel.is_empty bn.bintra_weak) then begin
            let extend_intra what old delta =
              if Rel.is_empty delta then old
              else begin
                let r = Rel.transitive_closure (Rel.union old delta) in
                Rel.iter
                  (fun x y ->
                    if x < n_old && y < n_old then
                      old_pair (fun ppf -> Fmt.pf ppf "%s intra order of node %d" what i) x y)
                  (Rel.diff r old);
                r
              end
            in
            nodes.(i) <-
              { o with
                children = (if gained then List.rev bn.bchildren else o.children);
                intra_weak = extend_intra "weak" o.intra_weak bn.bintra_weak;
                intra_strong = extend_intra "strong" o.intra_strong bn.bintra_strong }
          end
        end)
      b.bnodes;
    (* 2. Invocation graph and levels; recheck for recursion. *)
    let ig = ref h0.ig and ig_grew = ref (ns > ns_old) in
    let new_ops = Array.make ns [] in
    for i = n - 1 downto n_old do
      match nodes.(i).parent with
      | None -> ()
      | Some p -> (
        match nodes.(p).sched with
        | None -> assert false
        | Some ps ->
          new_ops.(ps) <- i :: new_ops.(ps);
          Option.iter
            (fun s ->
              if ps = s then invalid_arg "History.Builder.seal: schedule invokes itself";
              if not (Rel.mem ps s !ig) then begin
                ig := Rel.add ps s !ig;
                ig_grew := true
              end)
            nodes.(i).sched)
    done;
    let ig = !ig in
    let levels = if !ig_grew then compute_levels ns ig else h0.levels in
    (* 3. Per schedule, highest level first. *)
    let conv0 =
      match h0.conv with
      | Some c -> c
      | None ->
        let c = Array.map conv_of h0.scheds in
        h0.conv <- Some c;
        c
    in
    let nothing =
      { cweak_in = Rel.empty; cstrong_in = Rel.empty; cweak_out = Rel.empty;
        cstrong_out = Rel.empty }
    in
    let scheds =
      Array.init ns (fun s ->
          if s < ns_old then h0.scheds.(s)
          else
            let bs = Hashtbl.find b.bscheds s in
            { sid = s; sname = bs.bsname; conflict = bs.bconflict;
              transactions = Int_set.empty; weak_in = Rel.empty;
              strong_in = Rel.empty; weak_out = Rel.empty;
              strong_out = Rel.empty; log = [] })
    in
    let convs = Array.init ns (fun s -> if s < ns_old then conv0.(s) else nothing) in
    let log_out = Array.init ns (fun s -> s < ns_old && h0.log_out.(s)) in
    let push_w = Array.make ns [] and push_s = Array.make ns [] in
    let get_label i = nodes.(i).label in
    let children t = nodes.(t).children in
    let by_level =
      List.sort (fun s1 s2 -> compare levels.(s2) levels.(s1)) (List.init ns Fun.id)
    in
    List.iter
      (fun sid ->
        let bs = Hashtbl.find_opt b.bscheds sid in
        if bs <> None || push_w.(sid) <> [] || push_s.(sid) <> [] || new_ops.(sid) <> []
        then begin
          let o = scheds.(sid) and c = convs.(sid) in
          let delta f = match bs with Some bs -> f bs | None -> Rel.empty in
          let transactions = match bs with Some bs -> bs.btxs | None -> o.transactions in
          let order what r c = { what; gsname = o.sname; r; c; added = [] } in
          let sin = order "strong input" o.strong_in c.cstrong_in
          and win = order "weak input" o.weak_in c.cweak_in
          and sout = order "strong output" o.strong_out c.cstrong_out
          and wout = order "weak output" o.weak_out c.cweak_out in
          (* Logs, as [seal_fresh] checks them; the old operations must
             keep their logged order. *)
          let log = match bs with Some bs -> bs.blog | None -> o.log in
          if log <> [] && (log != o.log || new_ops.(sid) <> []) then
            check_log o.sname
              (Int_set.fold
                 (fun t acc -> List.fold_left (fun acc c -> Int_set.add c acc) acc (children t))
                 transactions Int_set.empty)
              log;
          if log != o.log && List.filter (fun v -> v < n_old) log <> o.log then
            not_an_extension "the log of schedule %s reorders operations of the extended history"
              o.sname;
          let explicit = not (Rel.is_empty (delta (fun bs -> bs.bweak_out))) in
          if log_out.(sid) && explicit then
            not_an_extension
              "schedule %s derives its output order from its log; output pairs cannot be added"
              o.sname;
          let derived = log <> [] && (log_out.(sid) || (o.log = [] && not explicit)) in
          log_out.(sid) <- derived;
          let compiled =
            lazy
              (match h0.ccache with
              | Some cc when sid < ns_old -> cc.compiled.(sid)
              | _ -> Conflict.compile o.conflict)
          in
          let conflict a b' =
            nodes.(a).parent <> nodes.(b').parent
            && Conflict.probe_ids (Lazy.force compiled) ~get_label a b'
          in
          (* Input orders: explicit root pairs, then the clients' pushes
             (Def. 4.7).  Weak contains strong without a union: every
             strong generator is a weak one too. *)
          let grow_pairs g = List.iter (fun (x, y) -> grow g x y) in
          let grow_rel g = Rel.iter (grow g) in
          grow_rel sin (delta (fun bs -> bs.bstrong_in));
          grow_pairs sin push_s.(sid);
          grow_rel win (delta (fun bs -> bs.bweak_in));
          grow_pairs win push_w.(sid);
          (* Input pairs expand to output pairs over the transactions'
             operations (Def. 3.1a, 3.3): a new input pair over all its
             operations, an old transaction with new operations over its
             new ones against every ordered partner. *)
          let expand g keep inp =
            let pairs os os' =
              List.iter (fun x -> List.iter (fun y -> if keep x y then grow g x y) os') os
            in
            List.iter (fun (t, t') -> pairs (children t) (children t')) inp.added;
            List.iter
              (fun t ->
                let fresh = List.filter (fun v -> v >= n_old) (children t) in
                Int_set.iter (fun t' -> pairs fresh (children t')) (Rel.succs inp.r t);
                Int_set.iter (fun t' -> pairs (children t') fresh) (Rel.succs inp.c t))
              grown.(sid)
          in
          grow_rel sout (delta (fun bs -> bs.bstrong_out));
          List.iter (grow_rel sout) intra_s.(sid);
          expand sout (fun _ _ -> true) sin;
          grow_rel wout (delta (fun bs -> bs.bweak_out));
          List.iter (grow_rel wout) intra_w.(sid);
          if derived then begin
            (* Log pairs of the new entries only. *)
            let entries = Array.of_list log in
            Array.iteri
              (fun j v ->
                if v >= n_old then
                  Array.iteri
                    (fun i u ->
                      if i < j && conflict u v then grow wout u v
                      else if i > j && u < n_old && conflict v u then grow wout v u)
                    entries)
              entries
          end;
          expand wout conflict win;
          grow_pairs wout sout.added;
          (* Push the new output pairs down (Def. 4.7). *)
          let push added into =
            List.iter
              (fun (x, y) ->
                match (nodes.(x).sched, nodes.(y).sched) with
                | Some cx, Some cy when cx = cy -> into.(cx) <- (x, y) :: into.(cx)
                | _ -> ())
              added
          in
          push wout.added push_w;
          push sout.added push_s;
          scheds.(sid) <-
            { o with transactions; weak_in = win.r; strong_in = sin.r;
              weak_out = wout.r; strong_out = sout.r; log };
          convs.(sid) <-
            { cweak_in = win.c; cstrong_in = sin.c; cweak_out = wout.c; cstrong_out = sout.c }
        end)
      by_level;
    { nodes; scheds; levels; ig; log_out; conv = Some convs; ccache = None }

  (* Both paths give the same history, but a whole history sealed through
     [seal_delta] (from the empty base) costs more: it closes pair by pair
     where [seal_fresh] closes each relation at once with the bitset
     kernel, and it builds the converse index.  On a 2-vCPU VM, parsing
     the 240-file check-files corpus took 1.8x the time and 1.44x the
     minor words that way, and E12's compsim certify run about 4x the
     time. *)
  let seal b = if b.delta then seal_delta b else seal_fresh b
end

let extend h declare =
  let b = Builder.on h in
  declare b;
  Builder.seal b

(* ------------------------------------------------------------------ *)
(* Root-prefix extraction                                              *)
(* ------------------------------------------------------------------ *)

(* The sub-execution of the first [k] root transactions (ascending id),
   rebuilt through the Builder in root-major depth-first order.  That
   order gives prefix histories the extension shape the incremental
   monitor relies on: [prefix_by_roots h k] and [prefix_by_roots h (k+1)]
   assign identical ids to shared nodes, and the larger prefix only
   appends nodes and grows relations.  Schedules are all retained (an
   empty schedule is a valid prefix state); explicit output orders, logs,
   intra orders and root input orders are restricted to kept nodes and
   re-sealed — seal's completion rules are monotone and idempotent on the
   restriction of an already-completed history, so [prefix_by_roots h
   (List.length (roots h))] is the whole of [h] up to the id relabelling
   (criteria verdicts are invariant under it). *)
let prefix_by_roots h k =
  let module B = Builder in
  let all_roots = roots h in
  if k < 0 || k > List.length all_roots then
    invalid_arg
      (Fmt.str "History.prefix_by_roots: %d not within 0..%d roots" k
         (List.length all_roots));
  let b = B.create () in
  Array.iter
    (fun (s : schedule) -> ignore (B.schedule b ~conflict:s.conflict s.sname))
    h.scheds;
  let kept_roots = List.filteri (fun i _ -> i < k) all_roots in
  let idmap = Hashtbl.create 64 in
  let rec build parent i =
    let n = h.nodes.(i) in
    let nid =
      match (parent, n.sched) with
      | None, Some s -> B.root b ~sched:s n.label
      | Some p, Some s -> B.tx b ~parent:p ~sched:s n.label
      | Some p, None -> B.leaf b ~parent:p n.label
      | None, None ->
        invalid_arg "History.prefix_by_roots: root without a schedule"
    in
    Hashtbl.replace idmap i nid;
    List.iter (fun c -> build (Some nid) c) n.children
  in
  List.iter (fun r -> build None r) kept_roots;
  let kept i = Hashtbl.mem idmap i in
  let m i = Hashtbl.find idmap i in
  let replay rel emit =
    Rel.iter (fun a b' -> if kept a && kept b' then emit ~a:(m a) ~b:(m b')) rel
  in
  Array.iter
    (fun (n : node) ->
      if n.children <> [] && kept n.id then begin
        replay n.intra_strong (B.intra_strong b);
        replay (Rel.diff n.intra_weak n.intra_strong) (B.intra_weak b)
      end)
    h.nodes;
  Array.iter
    (fun (s : schedule) ->
      let root_pair rel =
        Rel.filter (fun a b' -> is_root h a && is_root h b') rel
      in
      replay (root_pair s.strong_in) (B.input_strong b);
      replay (Rel.diff (root_pair s.weak_in) (root_pair s.strong_in))
        (B.input_weak b);
      replay s.strong_out (B.strong_out b);
      replay (Rel.diff s.weak_out s.strong_out) (B.weak_out b);
      if s.log <> [] then
        B.log b ~sched:s.sid
          (List.filter_map (fun i -> if kept i then Some (m i) else None) s.log))
    h.scheds;
  B.seal b

(* ------------------------------------------------------------------ *)
(* Read-only restricted views                                          *)
(* ------------------------------------------------------------------ *)

module View = struct
  type history = t

  type t = {
    vbase : history;
    kept : bool array; (* downward-closed survival, by original id *)
    map : int array; (* original id -> dense new id; -1 when dropped *)
    n_kept : int;
  }

  let make h ~keep =
    let n = Array.length h.nodes in
    (* Downward closure: parents have smaller ids than their children
       (builder allocation order), so one ascending pass settles
       survival. *)
    let kept = Array.make n false in
    for i = 0 to n - 1 do
      kept.(i) <-
        Int_set.mem i keep
        && (match h.nodes.(i).parent with None -> true | Some p -> kept.(p))
    done;
    let map = Array.make n (-1) in
    let next = ref 0 in
    for i = 0 to n - 1 do
      if kept.(i) then begin
        map.(i) <- !next;
        incr next
      end
    done;
    { vbase = h; kept; map; n_kept = !next }

  let base v = v.vbase
  let n_nodes v = v.n_kept
  let mem v i = i >= 0 && i < Array.length v.kept && v.kept.(i)
  let new_id v i = if mem v i then v.map.(i) else -1

  (* Transfer the base history's conflict memo onto the materialized
     restriction.  [cache] ranks a schedule's operations in ascending node-id
     order; a restriction keeps relative id order, so the old-rank ->
     new-rank map over surviving operations is monotone and every surviving
     unordered pair keeps its (hi, lo) orientation.  Conflict decisions
     depend only on labels (unchanged) and on Explicit id pairs (remapped by
     [to_history] along the same id map), so known bits transfer
     verbatim. *)
  let seed_cache v (h' : history) =
    match v.vbase.ccache with
    | None -> ()
    | Some old ->
      let c = cache h' in
      Array.iter
        (fun (s : schedule) ->
          match old.tables.(s.sid) with
          | None -> ()
          | Some _ when old.floors.(s.sid) > 0 ->
            (* A released prefix shifted the table to windowed ranks; the
               old-rank -> new-rank transfer below assumes floor-0 ranks,
               so skip — the restriction re-memoizes lazily. *)
            ()
          | Some (oknown, ovalue) ->
            let m_old = old.op_count.(s.sid) in
            (* New rank of each surviving operation, indexed by old rank;
               ascending id order matches the rank assignment of [cache]. *)
            let nr = Array.make (max 1 m_old) (-1) in
            let survivors = ref 0 in
            Array.iteri
              (fun o _ ->
                if old.op_sched.(o) = s.sid && v.kept.(o) then begin
                  nr.(old.op_index.(o)) <- !survivors;
                  incr survivors
                end)
              v.vbase.nodes;
            if !survivors > 1 && !survivors = c.op_count.(s.sid) then begin
              let m_new = !survivors in
              let known, value =
                match c.tables.(s.sid) with
                | Some kv -> kv
                | None ->
                  let bytes = max 1 (((m_new * (m_new - 1) / 2) + 7) / 8) in
                  let kv = (Bytes.make bytes '\000', Bytes.make bytes '\000') in
                  c.tables.(s.sid) <- Some kv;
                  kv
              in
              let get b bit =
                Char.code (Bytes.unsafe_get b (bit lsr 3))
                land (1 lsl (bit land 7))
                <> 0
              in
              let set b bit =
                Bytes.unsafe_set b (bit lsr 3)
                  (Char.unsafe_chr
                     (Char.code (Bytes.unsafe_get b (bit lsr 3))
                     lor (1 lsl (bit land 7))))
              in
              for hi = 1 to m_old - 1 do
                if nr.(hi) >= 0 then
                  for lo = 0 to hi - 1 do
                    if nr.(lo) >= 0 then begin
                      let obit = (hi * (hi - 1) / 2) + lo in
                      if get oknown obit then begin
                        (* Monotone rank map: nr.(hi) > nr.(lo). *)
                        let nbit = (nr.(hi) * (nr.(hi) - 1) / 2) + nr.(lo) in
                        set known nbit;
                        c.decided.(s.sid) <- c.decided.(s.sid) + 1;
                        if get ovalue obit then set value nbit
                      end
                    end
                  done
              done
            end)
        v.vbase.scheds

  let to_history v =
    let h = v.vbase in
    let n = Array.length h.nodes in
    let kept = v.kept and map = v.map in
    let both x y = x < n && y < n && kept.(x) && kept.(y) in
    let b = Builder.create () in
    List.iter
      (fun (s : schedule) ->
        let conflict =
          match s.conflict with
          | Conflict.Explicit pairs ->
            (* Explicit specs carry node ids; pairs with a dropped endpoint
               are gone along with the endpoint. *)
            Conflict.Explicit
              (List.filter_map
                 (fun (x, y) ->
                   if both x y then Some (map.(x), map.(y)) else None)
                 pairs)
          | spec -> spec
        in
        let sid = Builder.schedule b ~conflict s.sname in
        assert (sid = s.sid))
      (schedules h);
    for i = 0 to n - 1 do
      if kept.(i) then begin
        let nd = h.nodes.(i) in
        let id =
          match (nd.parent, nd.sched) with
          | None, Some sched -> Builder.root b ~sched nd.label
          | Some p, Some sched -> Builder.tx b ~parent:map.(p) ~sched nd.label
          | Some p, None -> Builder.leaf b ~parent:map.(p) nd.label
          | None, None -> assert false
        in
        assert (id = map.(i))
      end
    done;
    for i = 0 to n - 1 do
      if kept.(i) then begin
        let nd = h.nodes.(i) in
        Rel.iter
          (fun x y -> if both x y then Builder.intra_weak b ~a:map.(x) ~b:map.(y))
          nd.intra_weak;
        Rel.iter
          (fun x y ->
            if both x y then Builder.intra_strong b ~a:map.(x) ~b:map.(y))
          nd.intra_strong
      end
    done;
    List.iter
      (fun (s : schedule) ->
        (* Root input orders; non-root input orders are re-derived by
           seal. *)
        let root_pair x y = is_root h x && is_root h y in
        Rel.iter
          (fun x y ->
            if root_pair x y && both x y then
              Builder.input_weak b ~a:map.(x) ~b:map.(y))
          s.weak_in;
        Rel.iter
          (fun x y ->
            if root_pair x y && both x y then
              Builder.input_strong b ~a:map.(x) ~b:map.(y))
          s.strong_in;
        if s.log <> [] then begin
          (* The restricted execution's log: the kept operations in the
             original serialization order.  Explicit outputs are dropped and
             re-derived from it — a stale output restriction next to a
             changed log is the same hazard {!Clone.with_logs} guards
             against. *)
          match
            List.filter_map (fun v -> if kept.(v) then Some map.(v) else None) s.log
          with
          | [] -> ()
          | log -> Builder.log b ~sched:s.sid log
        end
        else begin
          Rel.iter
            (fun x y -> if both x y then Builder.weak_out b ~a:map.(x) ~b:map.(y))
            s.weak_out;
          Rel.iter
            (fun x y ->
              if both x y then Builder.strong_out b ~a:map.(x) ~b:map.(y))
            s.strong_out
        end)
      (schedules h);
    let h' = Builder.seal b in
    seed_cache v h';
    h'
end
