open Ids

type t = Int_set.t Int_map.t
(* Adjacency: [a -> set of b with (a, b) in the relation].  Empty successor
   sets are never stored. *)

let empty = Int_map.empty

let is_empty = Int_map.is_empty

(* [find]/[Not_found] rather than [find_opt]: a probe must not allocate a
   [Some] box, because the monitor's delta recovery probes every operation
   of every schedule per append and the misses/hits would otherwise put an
   O(n) floor under the per-append garbage. *)
let succs r a = try Int_map.find a r with Not_found -> Int_set.empty

let add a b r =
  let s = succs r a in
  if Int_set.mem b s then r else Int_map.add a (Int_set.add b s) r

let remove a b r =
  match Int_map.find_opt a r with
  | None -> r
  | Some s ->
    let s' = Int_set.remove b s in
    if Int_set.is_empty s' then Int_map.remove a r else Int_map.add a s' r

let mem a b r = Int_set.mem b (succs r a)

let of_list l = List.fold_left (fun r (a, b) -> add a b r) empty l

let fold f r acc =
  Int_map.fold (fun a s acc -> Int_set.fold (fun b acc -> f a b acc) s acc) r acc

let iter f r = Int_map.iter (fun a s -> Int_set.iter (fun b -> f a b) s) r

let to_list r = List.rev (fold (fun a b acc -> (a, b) :: acc) r [])

let cardinal r = Int_map.fold (fun _ s n -> n + Int_set.cardinal s) r 0

let union r1 r2 =
  Int_map.union (fun _ s1 s2 -> Some (Int_set.union s1 s2)) r1 r2

let inter r1 r2 =
  Int_map.merge
    (fun _ s1 s2 ->
      match (s1, s2) with
      | Some s1, Some s2 ->
        let s = Int_set.inter s1 s2 in
        if Int_set.is_empty s then None else Some s
      | _ -> None)
    r1 r2

let diff r1 r2 =
  Int_map.merge
    (fun _ s1 s2 ->
      match (s1, s2) with
      | Some s1, Some s2 ->
        let s = Int_set.diff s1 s2 in
        if Int_set.is_empty s then None else Some s
      | Some s1, None -> Some s1
      | None, _ -> None)
    r1 r2

let subset r1 r2 =
  Int_map.for_all (fun a s1 -> Int_set.subset s1 (succs r2 a)) r1

let equal r1 r2 = Int_map.equal Int_set.equal r1 r2

let preds r b =
  Int_map.fold
    (fun a s acc -> if Int_set.mem b s then Int_set.add a acc else acc)
    r Int_set.empty

let inverse r =
  (* One pass over the pairs: the predecessors of every node at once.
     [succs (inverse r) b] is [preds r b], so a caller that probes
     predecessors of more than one node should invert once instead of
     paying the O(size) scan of [preds] per probe. *)
  Int_map.fold
    (fun a s acc ->
      Int_set.fold
        (fun b acc ->
          Int_map.update b
            (function
              | Some pre -> Some (Int_set.add a pre)
              | None -> Some (Int_set.singleton a))
            acc)
        s acc)
    r Int_map.empty

let filter f r =
  Int_map.filter_map
    (fun a s ->
      let s' = Int_set.filter (fun b -> f a b) s in
      if Int_set.is_empty s' then None else Some s')
    r

let restrict ~keep r = filter (fun a b -> keep a && keep b) r

let map_nodes f r =
  fold
    (fun a b acc ->
      let a' = f a and b' = f b in
      if a' = b' then acc else add a' b' acc)
    r empty

let nodes r =
  Int_map.fold
    (fun a s acc -> Int_set.add a (Int_set.union s acc))
    r Int_set.empty

let reachable r start =
  let rec go seen = function
    | [] -> seen
    | n :: stack ->
      let fresh = Int_set.diff (succs r n) seen in
      go (Int_set.union seen fresh) (Int_set.elements fresh @ stack)
  in
  let init = succs r start in
  go init (Int_set.elements init)

(* --- dense-representation boundary ---------------------------------- *)

let of_bitrel b =
  (* [Bitrel.iter] visits pairs in ascending lexicographic order, so the
     successor set of each node arrives as one sorted run. *)
  let m = ref Int_map.empty in
  let cur_a = ref min_int and cur = ref [] in
  let flush () =
    match !cur with
    | [] -> ()
    | l -> m := Int_map.add !cur_a (Int_set.of_list (List.rev l)) !m
  in
  Bitrel.iter
    (fun a b' ->
      if a <> !cur_a then begin
        flush ();
        cur_a := a;
        cur := []
      end;
      cur := b' :: !cur)
    b;
  flush ();
  !m

let transitive_closure r =
  (* The closure itself runs in the dense kernel (SCC condensation +
     word-parallel row-OR, see {!Bitrel.close}); only the conversion at
     the boundary touches the persistent representation. *)
  if Int_map.is_empty r then r
  else begin
    let b = Bitrel.create (nodes r) in
    iter (fun x y -> Bitrel.add b x y) r;
    Bitrel.close b;
    of_bitrel b
  end

let is_transitive r =
  try
    iter
      (fun a b ->
        Int_set.iter (fun c -> if not (mem a c r) then raise Exit) (succs r b))
      r;
    true
  with Exit -> false

let irreflexive r = Int_map.for_all (fun a s -> not (Int_set.mem a s)) r

let transitive_reduction r =
  (* Drop (a, b) when b is reachable from a through some intermediate
     successor; on a DAG this yields the unique minimal reduction. *)
  let closure = transitive_closure r in
  filter
    (fun a b ->
      not
        (Int_set.exists
           (fun m -> m <> b && Int_set.mem b (succs closure m))
           (succs r a)))
    r

(* Depth-first search for a cycle; colours: 0 = white, 1 = grey, 2 = black. *)
let find_cycle r =
  let colour = Hashtbl.create 64 in
  let col v = match Hashtbl.find_opt colour v with Some c -> c | None -> 0 in
  let parent = Hashtbl.create 64 in
  let cycle = ref None in
  let rec dfs v =
    Hashtbl.replace colour v 1;
    Int_set.iter
      (fun w ->
        if !cycle = None then
          match col w with
          | 0 ->
            Hashtbl.replace parent w v;
            dfs w
          | 1 ->
            (* Found a back edge v -> w: reconstruct w -> ... -> v. *)
            let rec walk acc u = if u = w then u :: acc else walk (u :: acc) (Hashtbl.find parent u) in
            cycle := Some (walk [] v)
          | _ -> ())
      (succs r v);
    Hashtbl.replace colour v 2
  in
  Int_set.iter (fun v -> if !cycle = None && col v = 0 then dfs v) (nodes r);
  !cycle

let is_acyclic r = find_cycle r = None

let topo_sort ~nodes:universe r =
  let r = restrict ~keep:(fun v -> Int_set.mem v universe) r in
  (* Kahn's algorithm with a sorted frontier for determinism. *)
  let indeg = Hashtbl.create 64 in
  Int_set.iter (fun v -> Hashtbl.replace indeg v 0) universe;
  iter
    (fun _ b ->
      Hashtbl.replace indeg b (1 + Option.value ~default:0 (Hashtbl.find_opt indeg b)))
    r;
  let module Frontier = Set.Make (Int) in
  let frontier =
    Int_set.fold
      (fun v acc -> if Hashtbl.find indeg v = 0 then Frontier.add v acc else acc)
      universe Frontier.empty
  in
  let rec go frontier acc count =
    match Frontier.min_elt_opt frontier with
    | None -> if count = Int_set.cardinal universe then Some (List.rev acc) else None
    | Some v ->
      let frontier = Frontier.remove v frontier in
      let frontier =
        Int_set.fold
          (fun w acc ->
            let d = Hashtbl.find indeg w - 1 in
            Hashtbl.replace indeg w d;
            if d = 0 then Frontier.add w acc else acc)
          (succs r v) frontier
      in
      go frontier (v :: acc) (count + 1)
  in
  go frontier [] 0

let quotient cls r = map_nodes cls r

let total_on ns r =
  Int_set.for_all
    (fun a -> Int_set.for_all (fun b -> a = b || mem a b r || mem b a r) ns)
    ns

let pp ppf r =
  Fmt.pf ppf "{%a}"
    Fmt.(list ~sep:(any ";@ ") (pair ~sep:(any "->") int int))
    (to_list r)
