(* Workload inputs, generated from a seed.

   A stream is the text a client appends to one [compserve] stream, one
   chunk per append, with the verdict each append must get.  Chunk text is
   linear in the chunk: an [order] line is emitted only between an
   operation and the previous operation on the same item, and
   [History]'s [seal] completes the rest (transitive closure at the
   top schedule, pushed down as input orders to the leaf schedule).  Every
   order edge points from an earlier-declared operation to a later one, so
   a prefix's relations restricted to its old nodes never change — the
   extension contract the server's engine session relies on.

   Shape of every stream: a two-level stack.  Roots are transactions of
   [SP] (same-item conflicts); each root runs [add(x)]/[get(x)] operations
   that are transactions of [SA] (read/write leaves on the same item).
   Items come from a shared pool, so roots conflict.

   Acceptance by construction: every chain edge goes from an operation of
   root [a] to one of root [b] with [a <= b] (a new root is the newest; an
   operation appended to an older, still-open root [j] only takes an item
   whose last operation belongs to a root [<= j]), so the root order is a
   serial witness.  The constructed reject appends to an older root [j] an
   operation on an item whose last operation belongs to the newest root
   [k], where [j]'s earlier operation precedes [k]'s on that item: a cycle
   [j < k < j] at the root level. *)

open Repro_model
module Prng = Repro_workload.Prng
module Gen = Repro_workload.Gen
module Syntax = Repro_histlang.Syntax

type expect = Accept | Reject of string  (* failure kind *)

type append = { body : string; expect : expect }

type stream = { window : int option; appends : append array }

type shape = {
  pool : int;  (* shared item-pool size *)
  ops : int;  (* operations per new root *)
  ext_every : int;  (* every [ext_every]-th append extends an older open root; 0 = never *)
  open_roots : int;  (* the newest [open_roots] roots accept extensions *)
}

let preamble = "schedule SP conflict same-item\nschedule SA conflict rw\n"

(* One stream under construction. *)
type draft = {
  rng : Prng.t;
  shape : shape;
  chunk : Buffer.t;
  mutable next : int;  (* next node number *)
  mutable roots : int array;  (* root index -> root node *)
  mutable nroots : int;
  tail : (int, int * int) Hashtbl.t;  (* item -> (last op node, its root) *)
  mutable newest : (int * int option) list;
      (* the newest root's operations: item, and the root of the
         operation before it on that item *)
}

let draft rng shape =
  {
    rng;
    shape;
    chunk = Buffer.create 512;
    next = 0;
    roots = Array.make 16 0;
    nroots = 0;
    tail = Hashtbl.create 64;
    newest = [];
  }

let fresh b =
  let n = b.next in
  b.next <- n + 1;
  n

let add b fmt = Printf.bprintf b.chunk fmt

(* An operation under root [ri] on [item]: an [SA] transaction with its
   leaves, chained after the item's previous operation. *)
let op b ri item =
  let a = fresh b in
  let get = Prng.chance b.rng 0.3 in
  add b "tx n%d @ SA parent n%d %s(x%d)\n" a b.roots.(ri)
    (if get then "get" else "add")
    item;
  add b "leaf n%d parent n%d r(x%d)\n" (fresh b) a item;
  if not get then add b "leaf n%d parent n%d w(x%d)\n" (fresh b) a item;
  let pred = Hashtbl.find_opt b.tail item in
  Option.iter (fun (p, _) -> add b "order SP : n%d < n%d\n" p a) pred;
  Hashtbl.replace b.tail item (a, ri);
  Option.map snd pred

let take_chunk b =
  let s = Buffer.contents b.chunk in
  Buffer.clear b.chunk;
  s

let new_root b =
  let r = fresh b in
  if b.nroots = Array.length b.roots then
    b.roots <- Array.append b.roots (Array.make b.nroots 0);
  let ri = b.nroots in
  b.roots.(ri) <- r;
  b.nroots <- ri + 1;
  add b "root n%d @ SP T%d\n" r ri;
  let items = Array.init b.shape.pool Fun.id in
  Prng.shuffle b.rng items;
  b.newest <- List.init b.shape.ops (fun i -> (items.(i), op b ri items.(i)));
  take_chunk b

(* Extend one of the newest still-open roots with an item no later root
   has touched since, so the append stays serializable.  [None] when no
   such item exists. *)
let extension b =
  let span = min b.shape.open_roots (b.nroots - 1) in
  if span <= 0 then None
  else
    let ri = b.nroots - 1 - Prng.int b.rng span in
    let items = Array.init b.shape.pool Fun.id in
    Prng.shuffle b.rng items;
    let ok item =
      match Hashtbl.find_opt b.tail item with
      | None -> true
      | Some (_, r) -> r <= ri
    in
    match List.find_opt ok (Array.to_list items) with
    | None -> None
    | Some item ->
      ignore (op b ri item);
      Some (take_chunk b)

(* The constructed reject: see the header comment. *)
let reject_chunk b =
  let k = b.nroots - 1 in
  List.find_map
    (fun (item, pred) ->
      match pred with
      | Some j when j < k ->
        ignore (op b j item);
        Some (take_chunk b)
      | _ -> None)
    b.newest

let verdict_of h =
  match Repro_core.Compc.failure (Repro_core.Compc.check h) with
  | None -> Accept
  | Some f -> Reject (Repro_core.Reduction.failure_kind f)

(* A stream of [roots] new roots, with an extension append at every
   [ext_every]-th position; with [reject], one more append closes a
   cycle.  Only item and operation choices are random, so streams of one
   workload cost alike whatever the seed. *)
let stream rng shape ~window ~roots ~reject =
  let b = draft rng shape in
  let out = ref [] in
  let push body = out := { body; expect = Accept } :: !out in
  push (preamble ^ new_root b);
  while b.nroots < roots do
    let extend = shape.ext_every > 0 && List.length !out mod shape.ext_every = 0 in
    match if extend then extension b else None with
    | Some body -> push body
    | None -> push (new_root b)
  done;
  (* A reject needs an item the newest root shares with an older one;
     grow the stream by a root until it has one. *)
  let rec close () =
    match reject_chunk b with
    | Some body ->
      let text = String.concat "" (List.rev_map (fun a -> a.body) !out) in
      let expect = verdict_of (Syntax.parse (text ^ body)) in
      if expect = Accept then failwith "perfbench: constructed reject was accepted";
      out := { body; expect } :: !out
    | None ->
      push (new_root b);
      close ()
  in
  if reject then close ();
  { window; appends = Array.of_list (List.rev !out) }

(* ------------------------------------------------------------------ *)
(* The three workloads                                                 *)
(* ------------------------------------------------------------------ *)

type file = { name : string; text : string; hist : History.t; verdict : expect }

type t = {
  streams : stream list;  (* in the order the client starts them *)
  files : file list;
}

(* Closed output-order pairs over every schedule: what [seal] builds, and
   what a printed history spells out line by line. *)
let order_pairs h =
  List.fold_left
    (fun acc (s : History.schedule) -> acc + Repro_order.Rel.cardinal s.History.weak_out)
    0 (History.schedules h)

(* [serve-long]: a few long streams, each growing to 120-160 roots under
   a truncation window; lengths are staggered so the interleaved streams
   are never all at one depth.  Deeper streams cost more per append than
   a 20-second run can time in enough numbers: at 200-280 roots, a run
   timed about 200 appends in its deepest tenth. *)
let long_shape = { pool = 64; ops = 2; ext_every = 7; open_roots = 12 }

let long_streams rng =
  List.init 48 (fun i ->
      let roots = 120 + (20 * (i mod 3)) in
      stream (Prng.split rng) long_shape ~window:(Some 64) ~roots ~reject:false)

(* [serve-fleet]: many short streams; every fourth ends in a constructed
   reject. *)
let fleet_shape = { pool = 16; ops = 6; ext_every = 0; open_roots = 0 }

let fleet_streams rng =
  List.init 1024 (fun i ->
      let roots = 14 + (i * 5 mod 9) in
      stream (Prng.split rng) fleet_shape ~window:None ~roots
        ~reject:(i mod 4 = 3))

(* [check-files]: a fixed corpus over every generator shape, sized so the
   in-process check dominates a [compcheck] process's wall time.  Files
   with [~stream:true] logs accept; random logs mostly reject. *)
let corpus rng =
  (* Every transaction has exactly two children, and each file is the
     median of five draws for its slot by closed order pairs (which set
     its printed size): random conflict structure makes single draws
     heavy-tailed in size and check cost, and the corpus should cost
     about the same whatever the seed. *)
  let profile = { Gen.default_profile with ops_min = 2; ops_max = 2 } in
  List.init 240 (fun i ->
      let stream = i / 5 mod 2 = 0 in
      let pick lo hi = lo + (i * 7 mod (hi - lo + 1)) in
      let draw r =
        match i mod 5 with
        | 0 -> Gen.stack ~profile ~stream r ~levels:3 ~roots:(pick 10 18)
        | 1 -> Gen.fork ~profile ~stream r ~branches:3 ~roots:(pick 32 48)
        | 2 -> Gen.join ~profile ~stream r ~branches:3 ~roots:(pick 28 40)
        | 3 -> Gen.general ~profile ~stream r ~schedules:5 ~roots:(pick 16 28)
        | _ -> Gen.flat ~profile ~stream r ~roots:(pick 32 48)
      in
      let h =
        List.init 5 (fun _ ->
            let h = draw (Prng.split rng) in
            (order_pairs h, h))
        |> List.sort (fun (a, _) (b, _) -> compare a b)
        |> fun l -> snd (List.nth l 2)
      in
      let text = Syntax.to_string h in
      if Validate.check h <> [] then failwith "perfbench: Gen produced an invalid history";
      { name = Printf.sprintf "f%03d.ct" i; text; hist = h; verdict = verdict_of h })

let stream_text s = String.concat "" (Array.to_list (Array.map (fun a -> a.body) s.appends))

let generate ~workload ~seed =
  let rng = Prng.create ~seed in
  match workload with
  | "serve-long" -> { streams = long_streams rng; files = [] }
  | "serve-fleet" -> { streams = fleet_streams rng; files = [] }
  | "check-files" -> { streams = []; files = corpus rng }
  | w -> invalid_arg ("unknown workload " ^ w)

(* ------------------------------------------------------------------ *)
(* Serialization for run.py                                           *)
(* ------------------------------------------------------------------ *)

let expect_fields = function
  | Accept -> "accept -"
  | Reject kind -> "reject " ^ kind

(* streams.txt: [stream <window|0> <appends>] then, per append,
   [append <nbytes> <accept|reject> <kind|->] and the body bytes.
   files.txt: [<name> <bytes> <accept|reject> <kind|->] per file. *)
let write ~dir t =
  let oc = open_out_bin (Filename.concat dir "streams.txt") in
  List.iter
    (fun s ->
      Printf.fprintf oc "stream %d %d\n"
        (Option.value ~default:0 s.window)
        (Array.length s.appends);
      Array.iter
        (fun a ->
          Printf.fprintf oc "append %d %s\n%s" (String.length a.body)
            (expect_fields a.expect) a.body)
        s.appends)
    t.streams;
  close_out oc;
  let files_dir = Filename.concat dir "files" in
  if not (Sys.file_exists files_dir) then Sys.mkdir files_dir 0o755;
  let oc = open_out_bin (Filename.concat dir "files.txt") in
  List.iter
    (fun f ->
      let fc = open_out_bin (Filename.concat files_dir f.name) in
      output_string fc f.text;
      close_out fc;
      Printf.fprintf oc "%s %d %s\n" f.name (String.length f.text)
        (expect_fields f.verdict))
    t.files;
  close_out oc

(* Input sizes, printed beside the metrics: roots, nodes, bytes and the
   closed output-order pairs [seal] builds, over every stream's final
   history and every file. *)
let sizes t =
  let histories =
    List.map (fun s -> Syntax.parse (stream_text s)) t.streams
    @ List.map (fun f -> f.hist) t.files
  in
  let sum f = List.fold_left (fun acc h -> acc + f h) 0 histories in
  let stream_bytes =
    List.fold_left (fun acc s -> acc + String.length (stream_text s)) 0 t.streams
  in
  let file_bytes = List.fold_left (fun acc f -> acc + String.length f.text) 0 t.files in
  [
    ("streams", List.length t.streams);
    ("appends", List.fold_left (fun acc s -> acc + Array.length s.appends) 0 t.streams);
    ("files", List.length t.files);
    ("roots", sum (fun h -> List.length (History.roots h)));
    ("nodes", sum History.n_nodes);
    ("bytes", stream_bytes + file_bytes);
    ("order_pairs", sum order_pairs);
  ]
