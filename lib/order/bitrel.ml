open Ids

(* Bits per word: OCaml native ints carry [Sys.int_size] usable bits (63 on
   64-bit platforms); we use all of them, including the sign bit — the
   bitwise operators are oblivious to signedness. *)
let bpw = Sys.int_size

let words_for bits = (bits + bpw - 1) / bpw

(* External id -> compact index.  [make] relations index densely (id =
   index).  Batch universes are dense id ranges too (node ids are
   allocated consecutively), so the common compacted case is a plain
   offset array; a hashtable covers pathologically sparse universes
   without blowing up memory. *)
type index =
  | Dense
  | Direct of { off : int; map : int array } (* map.(id - off) = idx or -1 *)
  | Table of (int, int) Hashtbl.t

(* Every bit outside the active [rows] x [cols] window is zero: [add]
   refuses it, [reset] zeroes the old window before moving it, and growth
   starts from zeroed arrays.  Row scans and kernels rely on this to stop
   at [cols] without masking. *)
type t = {
  ids : int array; (* compact index -> external id; unused when [Dense] *)
  index : index;
  mutable buf : int array; (* bit j of row i: word i * stride + j / bpw *)
  mutable stride : int; (* words per row, >= 1 *)
  mutable rows : int; (* active rows *)
  mutable cols : int; (* active columns *)
}

(* Number of trailing zeros of a non-zero word. *)
let ntz x =
  let x = x land (-x) in
  let n = ref 0 and x = ref x in
  if !x land 0xFFFFFFFF = 0 then begin n := !n + 32; x := !x lsr 32 end;
  if !x land 0xFFFF = 0 then begin n := !n + 16; x := !x lsr 16 end;
  if !x land 0xFF = 0 then begin n := !n + 8; x := !x lsr 8 end;
  if !x land 0xF = 0 then begin n := !n + 4; x := !x lsr 4 end;
  if !x land 0x3 = 0 then begin n := !n + 2; x := !x lsr 2 end;
  if !x land 0x1 = 0 then incr n;
  !n

let make ~rows ~cols =
  if rows < 0 || cols < 0 then invalid_arg "Bitrel.make: negative dimension";
  let stride = max 1 (words_for cols) in
  let buf = Array.make (rows * stride) 0 in
  { ids = [||]; index = Dense; buf; stride; rows; cols }

(* [ids] is strictly increasing and owned by the result. *)
let of_sorted ids =
  let n = Array.length ids in
  let index =
    if n = 0 then Direct { off = 0; map = [||] }
    else
      let span = ids.(n - 1) - ids.(0) + 1 in
      if span <= (4 * n) + 1024 then begin
        let map = Array.make span (-1) in
        Array.iteri (fun i v -> map.(v - ids.(0)) <- i) ids;
        Direct { off = ids.(0); map }
      end
      else begin
        let tbl = Hashtbl.create (max 16 n) in
        Array.iteri (fun i v -> Hashtbl.replace tbl v i) ids;
        Table tbl
      end
  in
  let stride = max 1 (words_for n) in
  { ids; index; buf = Array.make (n * stride) 0; stride; rows = n; cols = n }

let of_ids ids =
  for i = 1 to Array.length ids - 1 do
    if ids.(i - 1) >= ids.(i) then
      invalid_arg "Bitrel.of_ids: ids must be strictly increasing"
  done;
  of_sorted (Array.copy ids)

let create us = of_sorted (Array.of_list (Int_set.elements us))

(* A capacity of at least [need], growing by half: a streaming caller
   pays O(1) amortized copying per appended row, and a stream that grows
   one node at a time leaves at most a third of the array as slack. *)
let grow cur need = if need <= cur then cur else max need (cur + ((cur + 1) / 2))

let ensure t ~rows ~cols =
  (match t.index with
  | Dense -> ()
  | Direct _ | Table _ -> invalid_arg "Bitrel.ensure: not a make relation");
  let cap = Array.length t.buf / t.stride in
  let stride = grow t.stride (words_for cols) and cap' = grow cap rows in
  if stride > t.stride || cap' > cap then begin
    let buf = Array.make (cap' * stride) 0 in
    for i = 0 to t.rows - 1 do
      for w = 0 to t.stride - 1 do
        buf.((i * stride) + w) <- t.buf.((i * t.stride) + w)
      done
    done;
    t.buf <- buf;
    t.stride <- stride
  end;
  t.rows <- max rows t.rows;
  t.cols <- max cols t.cols

let reset t ~rows ~cols =
  Array.fill t.buf 0 (t.rows * t.stride) 0;
  t.rows <- 0;
  t.cols <- 0;
  ensure t ~rows ~cols

(* The truncation path: a mirror built over a long prefix rebases onto a
   small window and should stop pinning O(prefix²) bits.  A window the
   array cannot hold is allocated tight too, without [ensure]'s growth
   slack. *)
let shrink t ~rows ~cols =
  let stride = max 1 (words_for cols) in
  let fits = stride <= t.stride && rows <= Array.length t.buf / t.stride in
  if (not fits) || Array.length t.buf > 4 * stride * max 1 rows then begin
    t.buf <- Array.make (rows * stride) 0;
    t.stride <- stride;
    t.rows <- 0
  end;
  reset t ~rows ~cols

let resident_words t = Array.length t.buf

(* Compact index of [v] along a dimension of [len] indices, or -1. *)
let idx t len v =
  match t.index with
  | Dense -> if v >= 0 && v < len then v else -1
  | Direct { off; map } ->
    let k = v - off in
    if k < 0 || k >= Array.length map then -1 else map.(k)
  | Table tbl -> ( try Hashtbl.find tbl v with Not_found -> -1)

let ext t i = match t.index with Dense -> i | Direct _ | Table _ -> t.ids.(i)

let get_bit t i j =
  t.buf.((i * t.stride) + (j / bpw)) land (1 lsl (j mod bpw)) <> 0

let add t a b =
  let i = idx t t.rows a and j = idx t t.cols b in
  if i < 0 || j < 0 then
    invalid_arg
      (Fmt.str "Bitrel.add: node %d outside the universe"
         (if i < 0 then a else b));
  let k = (i * t.stride) + (j / bpw) in
  t.buf.(k) <- t.buf.(k) lor (1 lsl (j mod bpw))

let mem t a b =
  let i = idx t t.rows a and j = idx t t.cols b in
  i >= 0 && j >= 0 && get_bit t i j

let row_iter t i f =
  if i < 0 || i >= t.rows then invalid_arg "Bitrel.row_iter: bad row";
  let base = i * t.stride in
  for w = 0 to words_for t.cols - 1 do
    let bits = ref t.buf.(base + w) in
    while !bits <> 0 do
      f ((w * bpw) + ntz !bits);
      bits := !bits land (!bits - 1)
    done
  done

let iter f t =
  for i = 0 to t.rows - 1 do
    let a = ext t i in
    row_iter t i (fun j -> f a (ext t j))
  done

let cardinal t =
  let n = ref 0 in
  iter (fun _ _ -> incr n) t;
  !n

let to_list t =
  let acc = ref [] in
  iter (fun a b -> acc := (a, b) :: !acc) t;
  List.rev !acc

(* ------------------------------------------------------------------ *)
(* SCC condensation and closure, over compact indices                  *)
(* ------------------------------------------------------------------ *)

let square t what =
  if t.rows <> t.cols then
    invalid_arg (Fmt.str "Bitrel.%s: %d x %d is not square" what t.rows t.cols);
  t.rows

(* Iterative Tarjan.  Components are numbered in completion order, so
   every component reachable from component [c] has a number strictly
   below [c] — i.e. ascending component number is reverse topological
   (sinks first). *)
let scc_condensation t =
  let n = square t "scc_condensation" in
  let index = Array.make n (-1) in
  let lowlink = Array.make n 0 in
  let on_stack = Array.make n false in
  let comp_of = Array.make n (-1) in
  let stack = ref [] in
  let counter = ref 0 in
  let ncomps = ref 0 in
  (* Explicit DFS stack: (node, saved word index, saved bits) frames are
     emulated by re-scanning from a per-node cursor over the successor
     row.  The cursor stores the next bit position to examine. *)
  let cursor = Array.make n 0 in
  for root = 0 to n - 1 do
    if index.(root) < 0 then begin
      let dfs = ref [ root ] in
      index.(root) <- !counter;
      lowlink.(root) <- !counter;
      incr counter;
      stack := root :: !stack;
      on_stack.(root) <- true;
      cursor.(root) <- 0;
      while !dfs <> [] do
        let v = List.hd !dfs in
        let base = v * t.stride in
        (* Find the next unvisited successor at or after the cursor. *)
        let next = ref (-1) in
        let j = ref cursor.(v) in
        while !next < 0 && !j < n do
          let w = !j / bpw in
          let bits = t.buf.(base + w) lsr (!j mod bpw) in
          if bits = 0 then j := (w + 1) * bpw
          else begin
            let cand = !j + ntz bits in
            if cand >= n then j := n
            else begin
              cursor.(v) <- cand + 1;
              if index.(cand) < 0 then next := cand
              else begin
                if on_stack.(cand) then
                  lowlink.(v) <- min lowlink.(v) index.(cand);
                j := cand + 1
              end
            end
          end
        done;
        match !next with
        | -1 ->
          (* v is finished. *)
          dfs := List.tl !dfs;
          (match !dfs with
          | parent :: _ -> lowlink.(parent) <- min lowlink.(parent) lowlink.(v)
          | [] -> ());
          if lowlink.(v) = index.(v) then begin
            let c = !ncomps in
            incr ncomps;
            let rec pop () =
              match !stack with
              | [] -> ()
              | w :: rest ->
                stack := rest;
                on_stack.(w) <- false;
                comp_of.(w) <- c;
                if w <> v then pop ()
            in
            pop ()
          end
        | w ->
          index.(w) <- !counter;
          lowlink.(w) <- !counter;
          incr counter;
          stack := w :: !stack;
          on_stack.(w) <- true;
          cursor.(w) <- 0;
          dfs := w :: !dfs
      done
    end
  done;
  (comp_of, !ncomps)

(* Purdom-style closure, in place: condense into SCCs, then in reverse
   topological order (ascending component number) accumulate each
   component's members and everything it reaches by word-parallel ORs of
   the finished components it points to, and store that set in the row of
   the component's first member; finally copy it to the other members.  A
   component's successor rows are all read before its row is written, and
   only finished components' rows are ORed in, so the relation's own array
   is both input and output: a closure allocates O(n) words of scratch,
   not a second matrix.  An acyclic singleton drops its own bit. *)
let close t =
  let n = square t "close" in
  let words = words_for n and stride = t.stride and buf = t.buf in
  let comp_of, ncomps = scc_condensation t in
  let rep = Array.make ncomps (-1) in
  let cyclic = Array.make ncomps false in
  for v = 0 to n - 1 do
    let c = comp_of.(v) in
    if rep.(c) < 0 then rep.(c) <- v else cyclic.(c) <- true;
    if get_bit t v v then cyclic.(c) <- true
  done;
  let comp_members = Array.make ncomps [] in
  for v = n - 1 downto 0 do
    comp_members.(comp_of.(v)) <- v :: comp_members.(comp_of.(v))
  done;
  let acc = Array.make words 0 in
  (* stamp.(d) = c marks successor component d as already merged into c. *)
  let stamp = Array.make ncomps (-1) in
  (* Ascending component number is reverse topological order: successors of
     a component always carry smaller numbers and are thus already done. *)
  for c = 0 to ncomps - 1 do
    Array.fill acc 0 words 0;
    List.iter
      (fun v ->
        acc.(v / bpw) <- acc.(v / bpw) lor (1 lsl (v mod bpw));
        row_iter t v (fun w ->
            let d = comp_of.(w) in
            if d <> c && stamp.(d) <> c then begin
              stamp.(d) <- c;
              let db = rep.(d) * stride in
              for k = 0 to words - 1 do
                acc.(k) <- acc.(k) lor buf.(db + k)
              done
            end))
      comp_members.(c);
    let cb = rep.(c) * stride in
    for k = 0 to words - 1 do
      buf.(cb + k) <- acc.(k)
    done
  done;
  for v = 0 to n - 1 do
    let c = comp_of.(v) in
    let r = rep.(c) in
    if v <> r then
      for k = 0 to words - 1 do
        buf.((v * stride) + k) <- buf.((r * stride) + k)
      done
    else if not cyclic.(c) then begin
      let k = (v * stride) + (v / bpw) in
      buf.(k) <- buf.(k) land lnot (1 lsl (v mod bpw))
    end
  done

(* ------------------------------------------------------------------ *)
(* Cycle detection and topological sort                                *)
(* ------------------------------------------------------------------ *)

let find_cycle t =
  let n = square t "find_cycle" in
  let colour = Array.make n 0 (* 0 white, 1 grey, 2 black *) in
  let parent = Array.make n (-1) in
  let cursor = Array.make n 0 in
  let result = ref None in
  let root = ref 0 in
  while !result = None && !root < n do
    if colour.(!root) = 0 then begin
      let dfs = ref [ !root ] in
      colour.(!root) <- 1;
      cursor.(!root) <- 0;
      while !result = None && !dfs <> [] do
        let v = List.hd !dfs in
        let base = v * t.stride in
        let next = ref (-1) in
        let j = ref cursor.(v) in
        while !result = None && !next < 0 && !j < n do
          let w = !j / bpw in
          let bits = t.buf.(base + w) lsr (!j mod bpw) in
          if bits = 0 then j := (w + 1) * bpw
          else begin
            let cand = !j + ntz bits in
            if cand >= n then j := n
            else begin
              cursor.(v) <- cand + 1;
              match colour.(cand) with
              | 0 -> next := cand
              | 1 ->
                (* Back edge v -> cand: reconstruct cand -> ... -> v. *)
                let rec walk acc u =
                  if u = cand then u :: acc else walk (u :: acc) parent.(u)
                in
                result := Some (List.map (ext t) (walk [] v))
              | _ -> j := cand + 1
            end
          end
        done;
        if !result = None then
          match !next with
          | -1 ->
            colour.(v) <- 2;
            dfs := List.tl !dfs
          | w ->
            parent.(w) <- v;
            colour.(w) <- 1;
            cursor.(w) <- 0;
            dfs := w :: !dfs
      done
    end;
    incr root
  done;
  !result

let is_acyclic t = find_cycle t = None

(* Kahn's algorithm with a frontier bitset; the minimum compact index is
   extracted first, and compaction preserves identifier order, so ties
   break by ascending external identifier exactly like [Rel.topo_sort]. *)
let topo_sort t =
  let n = square t "topo_sort" in
  let words = words_for n in
  let indeg = Array.make n 0 in
  for v = 0 to n - 1 do
    row_iter t v (fun j -> indeg.(j) <- indeg.(j) + 1)
  done;
  let frontier = Array.make words 0 in
  let push v =
    frontier.(v / bpw) <- frontier.(v / bpw) lor (1 lsl (v mod bpw))
  in
  for v = 0 to n - 1 do
    if indeg.(v) = 0 then push v
  done;
  let acc = ref [] in
  let count = ref 0 in
  let rec min_bit w =
    if w >= words then -1
    else if frontier.(w) <> 0 then (w * bpw) + ntz frontier.(w)
    else min_bit (w + 1)
  in
  let rec go () =
    let v = min_bit 0 in
    if v >= 0 then begin
      frontier.(v / bpw) <- frontier.(v / bpw) land lnot (1 lsl (v mod bpw));
      acc := ext t v :: !acc;
      incr count;
      row_iter t v (fun w ->
          indeg.(w) <- indeg.(w) - 1;
          if indeg.(w) = 0 then push w);
      go ()
    end
  in
  go ();
  if !count = n then Some (List.rev !acc) else None
