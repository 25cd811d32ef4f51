(* Chunk-at-a-time ingestion against the batch parser.  A stream session
   ([Syntax.Session]) grows its history with [History.extend], sealing only
   each chunk's delta; the oracle is [Syntax.parse] of the chunks accepted
   so far, joined by newlines.  After every chunk — the chunks of a
   [Server.Chunks] stream, plus one mutated chunk per stream — the session
   must either equal the fresh parse, or refuse the chunk and stay as it
   was.  It refuses exactly when the fresh parse fails, or when the chunk
   would change a relation among the nodes the session already had. *)
open Repro_order
open Repro_model
open Repro_workload
module Syntax = Repro_histlang.Syntax
module Session = Syntax.Session
module Server = Repro_runtime.Server

(* Every spec form [Server.Chunks.of_history] can stream ([Explicit] names
   nodes and cannot). *)
let specs =
  [
    Conflict.Rw;
    Conflict.Never;
    Conflict.Always;
    Conflict.Same_item;
    Conflict.Table Gen.service_table;
    Conflict.Adt Adt.Counter;
    Conflict.Adt Adt.Queue;
    Conflict.Adt Adt.Set;
    Conflict.Adt Adt.Escrow;
    Syntax.spec_of_string "adt(R=r/get, W=w/add; W/W=item, R/W=item)";
  ]

(* Every [Gen] shape, under a spec. *)
let history ~shape ~conflict rng =
  let stream = Prng.chance rng 0.5 in
  match shape with
  | 0 -> Gen.flat ~stream ~conflict rng ~roots:(2 + Prng.int rng 4)
  | 1 -> Gen.stack ~stream ~conflict rng ~levels:2 ~roots:(2 + Prng.int rng 4)
  | 2 -> Gen.stack ~stream ~conflict rng ~levels:3 ~roots:(2 + Prng.int rng 3)
  | 3 -> Gen.fork ~stream ~conflict rng ~branches:2 ~roots:(2 + Prng.int rng 3)
  | 4 -> Gen.join ~stream ~conflict rng ~branches:2 ~roots:(2 + Prng.int rng 3)
  | _ -> Gen.general ~stream ~conflict rng ~schedules:(2 + Prng.int rng 3) ~roots:(2 + Prng.int rng 3)

let n_shapes = 6

let orders (s : History.schedule) =
  History.[ s.weak_in; s.strong_in; s.weak_out; s.strong_out ]

let same_history a b =
  String.equal (Syntax.to_string a) (Syntax.to_string b)
  && History.n_schedules a = History.n_schedules b
  && List.for_all2
       (fun sa sb -> List.for_all2 Rel.equal (orders sa) (orders sb))
       (History.schedules a) (History.schedules b)

let has_order_line text sname =
  List.exists
    (fun line ->
      match String.split_on_char ' ' line with
      | ("order" | "order!") :: s :: _ -> s = sname
      | _ -> false)
    (String.split_on_char '\n' text)

(* Does [h'] (the text of [h] plus [chunk]) change a relation among the
   first [n_nodes h] nodes, or the log order of their operations?  A
   schedule whose output order [h] derives from its log counts as changed
   when the chunk declares output pairs for it: they turn the derivation
   off, which in general drops the log's pairs among the old nodes. *)
let changes_old ~text ~chunk h h' =
  let n = History.n_nodes h in
  let old = Rel.restrict ~keep:(fun v -> v < n) in
  let node_changed i =
    let a = History.node h i and b = History.node h' i in
    (not (Rel.equal a.History.intra_weak (old b.History.intra_weak)))
    || not (Rel.equal a.History.intra_strong (old b.History.intra_strong))
  in
  List.exists node_changed (List.init n Fun.id)
  || List.exists
       (fun (s : History.schedule) ->
         let s' = History.schedule h' s.History.sid in
         (not (List.for_all2 (fun r r' -> Rel.equal r (old r')) (orders s) (orders s')))
         || List.filter (fun v -> v < n) s'.History.log <> s.History.log
         || s.History.log <> []
            && (not (has_order_line text s.History.sname))
            && has_order_line chunk s.History.sname)
       (History.schedules h)

(* The memo carried along the session chain answers as the interpreter. *)
let memo_agrees h =
  let ok = ref true in
  List.iter
    (fun (s : History.schedule) ->
      let ops = Array.of_list (History.ops_of_schedule h s.History.sid) in
      Array.iter
        (fun a ->
          Array.iter
            (fun b ->
              if
                History.conflicts h s.History.sid a b
                <> History.conflicts_uncached h s.History.sid a b
              then ok := false)
            ops)
        ops)
    (History.schedules h);
  !ok

let pick rng l = List.nth l (Prng.int rng (List.length l))

(* One mutated variant of [chunk], given the history [h] the session holds
   before it.  Node names are [n<id>], as [Server.Chunks] writes them. *)
let mutate rng h chunk =
  let sname s = (History.schedule h s).History.sname in
  let with_ops =
    List.filter
      (fun (s : History.schedule) -> List.length (History.ops_of_schedule h s.History.sid) >= 2)
      (History.schedules h)
  in
  match Prng.int rng 5 with
  | 0 when with_ops <> [] ->
    (* an order line between two old operations of one schedule *)
    let s = pick rng with_ops in
    let ops = History.ops_of_schedule h s.History.sid in
    let a = pick rng ops in
    let b = pick rng (List.filter (fun v -> v <> a) ops) in
    Fmt.str "%sorder %s : n%d < n%d\n" chunk s.History.sname a b
  | 1 ->
    (* an unknown name *)
    Fmt.str "%sleaf nx%d parent nosuch r(x)\n" chunk (Prng.int rng 100)
  | 2 when History.n_nodes h > 0 ->
    (* a duplicate name *)
    Fmt.str "%sroot n%d @ %s Tdup\n" chunk (Prng.int rng (History.n_nodes h)) (sname 0)
  | 3 ->
    (* a truncated last line *)
    let body = String.sub chunk 0 (String.length chunk - 1) in
    let start = match String.rindex_opt body '\n' with Some i -> i + 1 | None -> 0 in
    String.sub body 0 (start + Prng.int rng (String.length body - start))
  | _ -> (
    (* a log line: over the schedule's operations after the chunk, in
       identifier order, sometimes with one left out *)
    match Syntax.parse (Syntax.to_string h ^ "\n" ^ chunk) with
    | exception _ -> chunk ^ "log S1 : n0\n"
    | h' ->
      let s = Prng.int rng (History.n_schedules h') in
      let ops = List.sort compare (History.ops_of_schedule h' s) in
      let ops =
        if ops <> [] && Prng.chance rng 0.3 then List.tl ops else ops
      in
      Fmt.str "%slog %s : %s\n" chunk (History.schedule h' s).History.sname
        (String.concat " " (List.map (Fmt.str "n%d") ops)))

(* Feed [chunks] through a session, mutating the chunk at [at]; check the
   invariant after every feed.  Returns [None] or the first discrepancy. *)
let run ~rng ~at chunks =
  let fail = ref None in
  let note fmt = Fmt.kstr (fun m -> if !fail = None then fail := Some m) fmt in
  let session = ref (Session.empty ()) and text = ref "" in
  let fresh = ref (Syntax.parse "") in
  let feed k chunk =
    let joined = if !text = "" then chunk else !text ^ "\n" ^ chunk in
    let want =
      match Syntax.parse joined with
      | h' when not (changes_old ~text:!text ~chunk !fresh h') -> Some h'
      | _ | (exception Syntax.Parse_error _) | (exception Invalid_argument _) -> None
    in
    let before = Session.history !session in
    match (Session.feed !session chunk, want) with
    | s', Some h' ->
      let got = Session.history s' in
      if not (same_history got h') then note "chunk %d: session differs from the fresh parse" k
      else begin
        if History.n_schedules before = History.n_schedules got then
          History.extend_cache ~from:before got;
        if not (memo_agrees got) then note "chunk %d: memo disagrees" k;
        session := s';
        text := joined;
        fresh := h'
      end
    | _, None -> note "chunk %d accepted, but the fresh parse fails or changes old relations" k
    | exception (Syntax.Parse_error _ | Invalid_argument _) -> (
      if not (same_history (Session.history !session) !fresh) then
        note "chunk %d: a refusal changed the session" k;
      match want with
      | Some _ -> note "chunk %d refused, but it extends the session" k
      | None -> ())
  in
  List.iteri
    (fun k chunk ->
      if k = at then feed k (mutate rng (Session.history !session) chunk);
      feed k chunk)
    chunks;
  !fail

let stream_chunks h =
  let { Server.Chunks.preamble; chunks } = Server.Chunks.of_history h in
  match chunks with c :: rest -> (preamble ^ c) :: rest | [] -> [ preamble ]

(* The same stream cut finer: every relation line moves right after the
   declaration of its later endpoint, and the lines are cut into chunks at
   random line boundaries.  Later chunks then add operations to old
   transactions and relate old nodes to new ones inside one root, which
   per-root chunks never do. *)
let fine_chunks rng h =
  let { Server.Chunks.preamble; chunks } = Server.Chunks.of_history h in
  let id w = int_of_string (String.sub w 1 (String.length w - 1)) in
  let at = Hashtbl.create 64 in
  List.iter
    (fun line ->
      let words = Array.of_list (String.split_on_char ' ' line) in
      let k = Array.length words in
      let owner =
        match words.(0) with
        | "root" | "tx" | "leaf" -> id words.(1)
        | _ -> max (id words.(k - 3)) (id words.(k - 1))
      in
      Hashtbl.replace at owner (line :: Option.value (Hashtbl.find_opt at owner) ~default:[]))
    (List.concat_map
       (fun c -> List.filter (( <> ) "") (String.split_on_char '\n' c))
       chunks);
  let out = ref [] and cur = Buffer.create 256 in
  Buffer.add_string cur preamble;
  for v = 0 to History.n_nodes h - 1 do
    List.iter
      (fun line ->
        Buffer.add_string cur line;
        Buffer.add_char cur '\n';
        if Prng.chance rng 0.3 then begin
          out := Buffer.contents cur :: !out;
          Buffer.clear cur
        end)
      (List.rev (Option.value (Hashtbl.find_opt at v) ~default:[]))
  done;
  if Buffer.length cur > 0 then out := Buffer.contents cur :: !out;
  List.rev !out

let case seed =
  let rng = Prng.create ~seed in
  let shape = seed mod n_shapes in
  let conflict = List.nth specs (seed / n_shapes mod List.length specs) in
  let h = history ~shape ~conflict rng in
  let chunks = if Prng.chance rng 0.5 then stream_chunks h else fine_chunks rng h in
  run ~rng ~at:(Prng.int rng (List.length chunks + 1)) chunks

(* Seeds 0 .. shapes × specs - 1 come first, so every shape meets every
   spec in each run; random seeds follow. *)
let seeds =
  let sweep = n_shapes * List.length specs and next = ref 0 in
  fun st ->
    if !next < sweep then begin
      incr next;
      !next - 1
    end
    else QCheck.Gen.int_bound 1_000_000 st

let prop_session_oracle =
  QCheck.Test.make ~count:500 ~name:"session = fresh parse, refusals exact"
    (QCheck.make ~print:string_of_int seeds)
    (fun seed ->
      match case seed with
      | None -> true
      | Some msg -> QCheck.Test.fail_reportf "seed %d: %s" seed msg)

(* Logs across chunks: a re-declared log must keep the old operations in
   their logged order, and a logged schedule cannot gain operations
   without one.  New entries may come before old ones. *)
let test_logs () =
  let chunks =
    [
      "schedule S conflict rw\nroot T1 @ S T1\nleaf a parent T1 w(x)\nlog S : a\n";
      "root T2 @ S T2\nleaf b parent T2 w(x)\n";
      "root T2 @ S T2\nleaf b parent T2 w(x)\nlog S : b a\n";
      "root T3 @ S T3\nleaf c parent T3 r(x)\nlog S : a b c\n";
      "root T3 @ S T3\nleaf c parent T3 r(x)\nlog S : b c a\n";
    ]
  in
  let accepted = [ true; false; true; false; true ] in
  let session = ref (Session.empty ()) and text = ref "" in
  List.iteri
    (fun k chunk ->
      match Session.feed !session chunk with
      | s' ->
        Alcotest.(check bool) (Fmt.str "chunk %d accepted" k) true (List.nth accepted k);
        text := !text ^ chunk;
        Alcotest.(check bool) (Fmt.str "chunk %d = fresh parse" k) true
          (same_history (Session.history s') (Syntax.parse !text));
        session := s'
      | exception Invalid_argument _ ->
        Alcotest.(check bool) (Fmt.str "chunk %d refused" k) false (List.nth accepted k))
    chunks;
  let s = History.schedule (Session.history !session) 0 in
  Alcotest.(check bool) "log pairs of new entries, before and after old ones" true
    (Rel.mem 3 1 s.History.weak_out && Rel.mem 3 5 s.History.weak_out
    && Rel.mem 5 1 s.History.weak_out)

let suite =
  [
    ("session", [ Alcotest.test_case "logs across chunks" `Quick test_logs ]);
    ("session:props", [ QCheck_alcotest.to_alcotest prop_session_oracle ]);
  ]
