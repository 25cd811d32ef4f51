(* Incremental topological order with strongly-connected-component
   maintenance — the Pearce–Kelly algorithm extended with union-find
   contraction, so the structure answers "is this graph still acyclic,
   and in what order?" in time proportional to the affected region of
   each inserted edge rather than to the whole graph.

   Invariants, with [rep v] the union-find representative of [v]:
   - the contracted graph (nodes = representatives, edges mapped through
     [rep]) is the condensation of the inserted edge set, so it is acyclic
     up to self-loops on representatives marked cyclic;
   - [ord] assigns every representative a distinct integer key that is a
     valid topological order of the condensation: for every inserted edge
     (a, b) with [rep a <> rep b], [ord (rep a) < ord (rep b)].

   On [add_edge a b] with [ord (rep b) < ord (rep a)] the affected region
   is the key window [[ord (rep b), ord (rep a)]]: a forward search from
   [rep b] and a backward search from [rep a], both confined to the
   window, discover exactly the representatives whose keys must move (the
   current order is valid, so keys increase strictly along any path — a
   path between the endpoints cannot leave the window).  If the searches
   meet, every representative lying on a path b ->* a (their
   intersection) is contracted into one component; the discovered keys
   are then redistributed — backward side first, contracted component
   next, forward side last, each side keeping its relative order — which
   restores the invariant while touching no key outside the region
   (correctness: backward nodes only move down, forward nodes only move
   up, and any neighbour of a moved node either lies outside the key
   window or was itself discovered). *)

type t = {
  mutable n : int; (* active nodes 0 .. n-1 *)
  mutable cap : int;
  (* Adjacency as append-only edge vectors ([out_e.(v)] valid up to
     [out_n.(v)]): the searches iterate successor lists of the affected
     region only, so edge vectors beat bit rows here — O(edges) memory
     and no full-row scans on sparse graphs. *)
  mutable out_e : int array array;
  mutable out_n : int array;
  mutable in_e : int array array;
  mutable in_n : int array;
  mutable uf : int array; (* union-find parent, path-halving *)
  mutable rank : int array;
  mutable nxt : int array; (* circular member list within each component *)
  mutable ord : int array; (* representative -> order key *)
  mutable key : int; (* next fresh key *)
  mutable cyc : Bytes.t; (* per representative: component contains a cycle *)
  mutable n_cyclic : int;
  mutable stamp_f : int array; (* forward-search visit marks, epoch-based *)
  mutable stamp_b : int array;
  mutable epoch : int;
  mutable edges : int;
  (* Scratch for the searches: DFS stack and the two discovered sets. *)
  mutable stk : int array;
  mutable stk_n : int;
  mutable fwd : int array;
  mutable fwd_n : int;
  mutable bwd : int array;
  mutable bwd_n : int;
}

let create ?(capacity = 16) () =
  let cap = max 1 capacity in
  {
    n = 0;
    cap;
    out_e = Array.make cap [||];
    out_n = Array.make cap 0;
    in_e = Array.make cap [||];
    in_n = Array.make cap 0;
    uf = Array.make cap 0;
    rank = Array.make cap 0;
    nxt = Array.make cap 0;
    ord = Array.make cap 0;
    key = 0;
    cyc = Bytes.make cap '\000';
    n_cyclic = 0;
    stamp_f = Array.make cap 0;
    stamp_b = Array.make cap 0;
    epoch = 0;
    edges = 0;
    stk = Array.make 64 0;
    stk_n = 0;
    fwd = Array.make 64 0;
    fwd_n = 0;
    bwd = Array.make 64 0;
    bwd_n = 0;
  }

let n_nodes t = t.n

let n_edges t = t.edges

let resident_words t =
  let nested a =
    Array.fold_left (fun acc (v : int array) -> acc + Array.length v + 1) 0 a
  in
  nested t.out_e + nested t.in_e
  + Array.length t.out_n
  + Array.length t.in_n + Array.length t.uf + Array.length t.rank
  + Array.length t.nxt + Array.length t.ord
  + ((Bytes.length t.cyc + 7) / 8)
  + Array.length t.stamp_f + Array.length t.stamp_b + Array.length t.stk
  + Array.length t.fwd + Array.length t.bwd

let grow t want =
  let cap = ref t.cap in
  while !cap < want do
    cap := 2 * !cap
  done;
  let cap = !cap in
  let extend_arr a fill =
    let b = Array.make cap fill in
    Array.blit a 0 b 0 t.cap;
    b
  in
  t.out_e <- extend_arr t.out_e [||];
  t.out_n <- extend_arr t.out_n 0;
  t.in_e <- extend_arr t.in_e [||];
  t.in_n <- extend_arr t.in_n 0;
  t.uf <- extend_arr t.uf 0;
  t.rank <- extend_arr t.rank 0;
  t.nxt <- extend_arr t.nxt 0;
  t.ord <- extend_arr t.ord 0;
  t.stamp_f <- extend_arr t.stamp_f 0;
  t.stamp_b <- extend_arr t.stamp_b 0;
  let c = Bytes.make cap '\000' in
  Bytes.blit t.cyc 0 c 0 t.cap;
  t.cyc <- c;
  t.cap <- cap

let ensure_nodes t n =
  if n > t.cap then grow t n;
  while t.n < n do
    let v = t.n in
    t.uf.(v) <- v;
    t.rank.(v) <- 0;
    t.nxt.(v) <- v;
    t.ord.(v) <- t.key;
    t.key <- t.key + 1;
    t.n <- t.n + 1
  done

let add_node t = ensure_nodes t (t.n + 1)

let rec find t v =
  let p = t.uf.(v) in
  if p = v then v
  else begin
    let g = t.uf.(p) in
    t.uf.(v) <- g;
    if g = p then p else find t g
  end

let rep = find

let same_component t a b = find t a = find t b

let acyclic t = t.n_cyclic = 0

let pos t v = t.ord.(find t v)

let push_adj e n_arr v x =
  let len = n_arr.(v) in
  let arr = e.(v) in
  let arr =
    if len >= Array.length arr then begin
      let b = Array.make (max 4 (2 * Array.length arr)) 0 in
      Array.blit arr 0 b 0 len;
      e.(v) <- b;
      b
    end
    else arr
  in
  arr.(len) <- x;
  n_arr.(v) <- len + 1

let mark_cyclic t r =
  if Bytes.get t.cyc r = '\000' then begin
    Bytes.set t.cyc r '\001';
    t.n_cyclic <- t.n_cyclic + 1
  end

let push_stk t v =
  if t.stk_n >= Array.length t.stk then begin
    let b = Array.make (2 * Array.length t.stk) 0 in
    Array.blit t.stk 0 b 0 t.stk_n;
    t.stk <- b
  end;
  t.stk.(t.stk_n) <- v;
  t.stk_n <- t.stk_n + 1

let push_fwd t v =
  if t.fwd_n >= Array.length t.fwd then begin
    let b = Array.make (2 * Array.length t.fwd) 0 in
    Array.blit t.fwd 0 b 0 t.fwd_n;
    t.fwd <- b
  end;
  t.fwd.(t.fwd_n) <- v;
  t.fwd_n <- t.fwd_n + 1

let push_bwd t v =
  if t.bwd_n >= Array.length t.bwd then begin
    let b = Array.make (2 * Array.length t.bwd) 0 in
    Array.blit t.bwd 0 b 0 t.bwd_n;
    t.bwd <- b
  end;
  t.bwd.(t.bwd_n) <- v;
  t.bwd_n <- t.bwd_n + 1

(* Search over representatives: neighbours of a component are the mapped
   adjacency entries of all its members (circular list from the
   representative). *)
let search t ~forward ~start ~lo ~hi ~ep =
  let stamp = if forward then t.stamp_f else t.stamp_b in
  t.stk_n <- 0;
  stamp.(start) <- ep;
  push_stk t start;
  while t.stk_n > 0 do
    t.stk_n <- t.stk_n - 1;
    let r = t.stk.(t.stk_n) in
    if forward then push_fwd t r else push_bwd t r;
    let m = ref r in
    let continue = ref true in
    while !continue do
      let v = !m in
      let e = if forward then t.out_e.(v) else t.in_e.(v) in
      let len = if forward then t.out_n.(v) else t.in_n.(v) in
      for k = 0 to len - 1 do
        let x = find t e.(k) in
        if stamp.(x) <> ep && t.ord.(x) >= lo && t.ord.(x) <= hi then begin
          stamp.(x) <- ep;
          push_stk t x
        end
      done;
      m := t.nxt.(v);
      if !m = r then continue := false
    done
  done

let add_edge t a b =
  if a < 0 || a >= t.n || b < 0 || b >= t.n then
    invalid_arg
      (Printf.sprintf "Increl.add_edge: (%d, %d) outside 0..%d" a b (t.n - 1));
  push_adj t.out_e t.out_n a b;
  push_adj t.in_e t.in_n b a;
  t.edges <- t.edges + 1;
  let ra = find t a and rb = find t b in
  if ra = rb then mark_cyclic t ra
  else if t.ord.(ra) < t.ord.(rb) then ()
  else begin
    let lo = t.ord.(rb) and hi = t.ord.(ra) in
    t.epoch <- t.epoch + 1;
    let ep = t.epoch in
    t.fwd_n <- 0;
    t.bwd_n <- 0;
    search t ~forward:true ~start:rb ~lo ~hi ~ep;
    let cycle = t.stamp_f.(ra) = ep in
    search t ~forward:false ~start:ra ~lo ~hi ~ep;
    (* The two discovered sets overlap exactly on the representatives
       lying on a b ->* a path; with the new edge a -> b those form one
       strongly connected component. *)
    let base = ref (-1) in
    if cycle then begin
      for i = 0 to t.fwd_n - 1 do
        let r = t.fwd.(i) in
        if t.stamp_b.(r) = ep then
          if !base < 0 || t.rank.(r) > t.rank.(!base) then base := r
      done;
      let base = !base in
      for i = 0 to t.fwd_n - 1 do
        let r = t.fwd.(i) in
        if t.stamp_b.(r) = ep && r <> base then begin
          if Bytes.get t.cyc r = '\001' then begin
            Bytes.set t.cyc r '\000';
            t.n_cyclic <- t.n_cyclic - 1
          end;
          t.uf.(r) <- base;
          (* Splice the two circular member lists in O(1). *)
          let tmp = t.nxt.(base) in
          t.nxt.(base) <- t.nxt.(r);
          t.nxt.(r) <- tmp
        end
      done;
      t.rank.(base) <- t.rank.(base) + 1;
      mark_cyclic t base
    end;
    let base = !base in
    (* Redistribute the discovered keys: backward-only representatives
       first (they only move down), the contracted component next, the
       forward-only ones last (they only move up), each side in its old
       relative order. *)
    let dminus =
      let a = Array.make t.bwd_n 0 and j = ref 0 in
      for i = 0 to t.bwd_n - 1 do
        let r = t.bwd.(i) in
        if t.stamp_f.(r) <> ep then begin
          a.(!j) <- r;
          incr j
        end
      done;
      Array.sub a 0 !j
    in
    let dplus =
      let a = Array.make t.fwd_n 0 and j = ref 0 in
      for i = 0 to t.fwd_n - 1 do
        let r = t.fwd.(i) in
        if t.stamp_b.(r) <> ep then begin
          a.(!j) <- r;
          incr j
        end
      done;
      Array.sub a 0 !j
    in
    let pool =
      let a = Array.make (t.fwd_n + Array.length dminus) 0 in
      for i = 0 to t.fwd_n - 1 do
        a.(i) <- t.ord.(t.fwd.(i))
      done;
      Array.iteri (fun i r -> a.(t.fwd_n + i) <- t.ord.(r)) dminus;
      Array.sort compare a;
      a
    in
    let byord r r' = compare t.ord.(r) t.ord.(r') in
    Array.sort byord dminus;
    Array.sort byord dplus;
    let np = Array.length pool in
    let nplus = Array.length dplus in
    Array.iteri (fun i r -> t.ord.(r) <- pool.(i)) dminus;
    Array.iteri (fun i r -> t.ord.(r) <- pool.(np - nplus + i)) dplus;
    if cycle then t.ord.(base) <- pool.(Array.length dminus)
  end

(* Members of [v]'s component, in member-list order starting at [v]. *)
let component t v =
  let acc = ref [ v ] in
  let m = ref t.nxt.(v) in
  while !m <> v do
    acc := !m :: !acc;
    m := t.nxt.(!m)
  done;
  List.rev !acc

let find_cycle t =
  if t.n_cyclic = 0 then None
  else begin
    (* First node whose component is cyclic. *)
    let v0 = ref (-1) in
    let v = ref 0 in
    while !v0 < 0 do
      if Bytes.get t.cyc (find t !v) = '\001' then v0 := !v else incr v
    done;
    let v0 = !v0 in
    let r = find t v0 in
    if t.nxt.(v0) = v0 then Some [ v0 ] (* singleton: a self-loop *)
    else begin
      (* Strongly connected, so a DFS over intra-component edges from [v0]
         meets an edge back into [v0]; the parent chain closes the cycle. *)
      t.epoch <- t.epoch + 1;
      let ep = t.epoch in
      let parent = Hashtbl.create 16 in
      t.stk_n <- 0;
      t.stamp_f.(v0) <- ep;
      push_stk t v0;
      let result = ref None in
      while !result = None && t.stk_n > 0 do
        t.stk_n <- t.stk_n - 1;
        let u = t.stk.(t.stk_n) in
        let k = ref 0 in
        while !result = None && !k < t.out_n.(u) do
          let x = t.out_e.(u).(!k) in
          incr k;
          if x = v0 then begin
            let rec walk acc w =
              if w = v0 then w :: acc else walk (w :: acc) (Hashtbl.find parent w)
            in
            result := Some (walk [] u)
          end
          else if find t x = r && t.stamp_f.(x) <> ep then begin
            t.stamp_f.(x) <- ep;
            Hashtbl.replace parent x u;
            push_stk t x
          end
        done
      done;
      !result
    end
  end

(* Canonical Kahn sort over the node graph, by the batch kernel over a
   dense copy of the edges; test-path only (the hot path reads the
   maintained [pos] keys instead). *)
let topo_sort t =
  if t.n_cyclic > 0 then None
  else if t.n = 0 then Some []
  else begin
    let a = Bitrel.make ~rows:t.n ~cols:t.n in
    for v = 0 to t.n - 1 do
      for k = 0 to t.out_n.(v) - 1 do
        Bitrel.add a v t.out_e.(v).(k)
      done
    done;
    Bitrel.topo_sort a
  end
