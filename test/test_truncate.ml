(* Frontier truncation: bounded-memory monitored sessions.

   The headline property is verdict parity — a monitor with an
   auto-truncation window decides exactly what an untruncated session
   decides on every prefix of a random stream, accepting and rejecting
   alike — on root-prefix chains and on serve-long-shaped streams whose
   appends reach into the newest roots, past the retained tail, and
   back into the folded prefix.  The units pin the truncation surface:
   undo refused across a fold boundary, [truncate; truncate] =
   [truncate], the summary contents, that the dense resident estimate
   actually shrinks when the certified prefix is folded, where
   auto-truncation folds, each restore cause, and the restore
   backoff. *)
open Repro_order
open Repro_model
open Repro_workload
module Engine = Repro_core.Engine
module Reduction = Repro_core.Reduction
module Observed = Repro_core.Observed
module Session = Repro_histlang.Syntax.Session

let history_of_seed seed =
  let rng = Prng.create ~seed in
  let stream = seed mod 2 = 0 in
  match seed mod 5 with
  | 0 -> Gen.flat ~stream rng ~roots:(3 + (seed mod 4))
  | 1 -> Gen.stack ~stream rng ~levels:(2 + (seed mod 3)) ~roots:(2 + (seed mod 3))
  | 2 -> Gen.fork ~stream rng ~branches:2 ~roots:(3 + (seed mod 2))
  | 3 -> Gen.join ~stream rng ~branches:2 ~roots:3
  | _ -> Gen.general ~stream rng ~schedules:(3 + (seed mod 3)) ~roots:(3 + (seed mod 2))

let arb_seed = QCheck.make ~print:string_of_int (QCheck.Gen.int_bound 1_000_000)

let n_roots h = List.length (History.roots h)

(* Verdicts agree when acceptance agrees, and rejections cite the same
   failure kind (the witness details may differ in inessentials, like
   the untruncated monitor's vs the batch checker's). *)
let same_verdict a b =
  match (a, b) with
  | Engine.Accepted _, Engine.Accepted _ -> true
  | Engine.Rejected f, Engine.Rejected g ->
    Reduction.failure_kind f = Reduction.failure_kind g
  | _ -> false

let stack_history () = Gen.stack (Prng.create ~seed:42) ~levels:2 ~roots:4

let cause eng c = List.assoc c (Engine.restores_by_cause eng)

(* ------------------------------------------------------------------ *)
(* Property: windowed = untruncated on random streams                  *)
(* ------------------------------------------------------------------ *)

let prop_truncation_parity =
  QCheck.Test.make ~count:120 ~name:"auto-truncation preserves every verdict"
    arb_seed (fun seed ->
      let h = history_of_seed seed in
      (* Tiny windows force truncation (and the occasional breach-and-
         restore) constantly; vary them so both regimes are hit. *)
      let window = 4 + (seed mod 13) in
      let plain = Engine.create () in
      let windowed = Engine.create ~window () in
      let ok = ref true in
      for k = 1 to n_roots h do
        let p = History.prefix_by_roots h k in
        let v_plain = Engine.extend plain p in
        let v_win = Engine.extend windowed p in
        if not (same_verdict v_plain v_win) then ok := false
      done;
      !ok)

let prop_truncation_not_vacuous =
  QCheck.Test.make ~count:60 ~name:"small windows actually truncate"
    arb_seed (fun seed ->
      let h = history_of_seed seed in
      let s = Engine.create ~window:4 () in
      for k = 1 to n_roots h do
        ignore (Engine.extend s (History.prefix_by_roots h k))
      done;
      (* Streams that reject early may legitimately never fold (only a
         certified prefix is foldable), and a fold followed by a breach
         restore legitimately ends back at floor 0 — but the lifetime
         counter proves the parity property above exercised folding.
         The watermark is checked before each append, so only a stream
         with some non-final prefix at or past the window can fold at
         all — nothing folds after the last append. *)
      let can_fold =
        let rec any k =
          k < n_roots h
          && (History.n_nodes (History.prefix_by_roots h k) >= 4 || any (k + 1))
        in
        any 1
      in
      (not (Engine.accepted s)) || (not can_fold) || Engine.truncations s > 0)

(* ------------------------------------------------------------------ *)
(* Property: windowed = unwindowed on open-root streams                *)
(* ------------------------------------------------------------------ *)

let preamble = "schedule SP conflict same-item\nschedule SA conflict rw\n"

(* A serve-long-shaped stream, as chunks: a two-level stack whose roots
   (transactions of [SP]) run operations (transactions of [SA], with
   read/write leaves) on items of a shared pool, each ordered after the
   item's previous operation.  Every [every]-th append adds an operation
   to one of the [span] newest roots instead of a new root, on an item no
   later root has touched since, so the root order stays a witness.
   [span] ranges past the retained tail, so some of these appends reach
   a folded root.  Some streams also give a new root an operation on a
   never-used item ordered before an older operation on another item: an
   input pair, and no observed one, pointing back into the past.  Some
   end in a constructed reject: an operation under an older root [j] on
   an item whose previous operation belongs to the newest root [k], where
   [j] touched the item before [k] did — a cycle [j < k < j]. *)
let open_root_stream seed =
  let rng = Prng.create ~seed in
  let pool = 3 + Prng.int rng 6 and per_root = 1 + Prng.int rng 2 in
  let every = 2 + Prng.int rng 4 and span = 2 + Prng.int rng 14 in
  let target = 10 + Prng.int rng 30 in
  let backward = Prng.chance rng 0.3 and reject = Prng.chance rng 0.5 in
  let b = Buffer.create 256 in
  let next = ref 0 and roots = ref [||] and fresh_item = ref pool in
  let tail = Hashtbl.create 16 (* item -> last operation, its root *) in
  let ops = ref [] (* every operation, newest first *) in
  let newest = ref [] (* the newest root's items, with the previous root *) in
  let fresh () =
    incr next;
    !next - 1
  in
  let op ri item =
    let a = fresh () and get = Prng.chance rng 0.3 in
    Printf.bprintf b "tx n%d @ SA parent n%d %s(x%d)\n" a !roots.(ri)
      (if get then "get" else "add") item;
    Printf.bprintf b "leaf n%d parent n%d r(x%d)\n" (fresh ()) a item;
    if not get then Printf.bprintf b "leaf n%d parent n%d w(x%d)\n" (fresh ()) a item;
    let pred = Hashtbl.find_opt tail item in
    Option.iter (fun (p, _) -> Printf.bprintf b "order SP : n%d < n%d\n" p a) pred;
    Hashtbl.replace tail item (a, ri);
    ops := a :: !ops;
    Option.map snd pred
  in
  let take () =
    let c = Buffer.contents b in
    Buffer.clear b;
    c
  in
  let shuffled () =
    let items = Array.init pool Fun.id in
    Prng.shuffle rng items;
    items
  in
  let new_root () =
    let older = !ops in
    let r = fresh () and ri = Array.length !roots in
    roots := Array.append !roots [| r |];
    Printf.bprintf b "root n%d @ SP T%d\n" r ri;
    let items = shuffled () in
    newest := List.init per_root (fun i -> (items.(i), op ri items.(i)));
    if backward && older <> [] && Prng.chance rng 0.25 then begin
      let item = !fresh_item in
      incr fresh_item;
      ignore (op ri item);
      Printf.bprintf b "order SP : n%d < n%d\n" (List.hd !ops) (Prng.pick rng older)
    end;
    take ()
  in
  let extension () =
    let n = Array.length !roots in
    let span = min span (n - 1) in
    if span <= 0 then None
    else
      let ri = n - 1 - Prng.int rng span in
      let ok item =
        match Hashtbl.find_opt tail item with None -> true | Some (_, r) -> r <= ri
      in
      match List.find_opt ok (Array.to_list (shuffled ())) with
      | None -> None
      | Some item ->
        ignore (op ri item);
        Some (take ())
  in
  let chunks = ref [ preamble ^ new_root () ] in
  while Array.length !roots < target do
    let ext = List.length !chunks mod every = 0 in
    chunks := (match if ext then extension () else None with
              | Some c -> c
              | None -> new_root ()) :: !chunks
  done;
  let k = Array.length !roots - 1 in
  (if reject then
     match List.find_opt (function _, Some j -> j < k | _ -> false) !newest with
     | Some (item, Some j) ->
       ignore (op j item);
       chunks := take () :: !chunks
     | _ -> ());
  List.rev !chunks

(* [serial] lists every root once, and every observed or input pair
   between two roots of the whole prefix runs forward in it. *)
let extends_top_front h serial =
  let rel = Observed.compute h in
  let pos = Hashtbl.create 64 in
  List.iteri (fun i r -> Hashtbl.replace pos r i) serial;
  let roots = History.roots h in
  let forward a b =
    a = b
    || (not (History.is_root h a && History.is_root h b))
    || Hashtbl.find pos a < Hashtbl.find pos b
  in
  List.length serial = List.length roots
  && List.for_all (Hashtbl.mem pos) roots
  && Rel.fold (fun a b ok -> ok && forward a b) rel.Observed.obs true
  && Rel.fold (fun a b ok -> ok && forward a b) rel.Observed.inp true

type tally = { mutable kernel_at_floor : int; mutable restores : int }

(* One stream through a windowed and an unwindowed engine; [None] when
   they agree after every append. *)
let open_root_case tally seed =
  let window = 4 + (seed mod 37) in
  let plain = Engine.create () and win = Engine.create ~window () in
  let session = ref (Session.empty ()) in
  let rec go i = function
    | [] -> None
    | chunk :: rest -> (
      session := Session.feed !session chunk;
      let h = Session.history !session in
      let kernel0 = (Engine.stats win).Engine.kernel_hits
      and restores0 = Engine.restores win in
      let v_plain = Engine.extend plain h and v_win = Engine.extend win h in
      if
        Engine.floor win > 0
        && (Engine.stats win).Engine.kernel_hits > kernel0
        && Engine.restores win = restores0
      then tally.kernel_at_floor <- tally.kernel_at_floor + 1;
      match (v_plain, v_win) with
      | Engine.Accepted _, Engine.Accepted serial when not (extends_top_front h serial)
        ->
        Some (Fmt.str "append %d: the windowed witness is not a linear extension" i)
      | (Engine.Accepted _, Engine.Accepted _) -> go (i + 1) rest
      | Engine.Rejected f, Engine.Rejected g
        when Reduction.failure_kind f = Reduction.failure_kind g ->
        go (i + 1) rest
      | _ -> Some (Fmt.str "append %d (window %d): verdicts differ" i window))
  in
  let r = go 0 (open_root_stream seed) in
  tally.restores <- tally.restores + Engine.restores win;
  r

(* Seeds 0 .. 39 come first, so every run covers the same spread of
   shapes; random seeds follow. *)
let open_root_seeds =
  let next = ref 0 in
  fun st ->
    if !next < 40 then begin
      incr next;
      !next - 1
    end
    else QCheck.Gen.int_bound 1_000_000 st

(* The property, then its non-vacuity across every case it ran. *)
let test_open_root_parity () =
  let tally = { kernel_at_floor = 0; restores = 0 } in
  let _, _, run =
    QCheck_alcotest.to_alcotest
      (QCheck.Test.make ~count:200
         ~name:"windowed = unwindowed on open-root streams"
         (QCheck.make ~print:string_of_int open_root_seeds)
         (fun seed ->
           match open_root_case tally seed with
           | None -> true
           | Some msg -> QCheck.Test.fail_reportf "seed %d: %s" seed msg))
  in
  run ();
  Alcotest.(check bool)
    (Fmt.str "some append decided by the kernel over a folded window (%d)"
       tally.kernel_at_floor)
    true (tally.kernel_at_floor > 0);
  Alcotest.(check bool)
    (Fmt.str "some restore (%d)" tally.restores)
    true (tally.restores > 0)

(* ------------------------------------------------------------------ *)
(* Units                                                               *)
(* ------------------------------------------------------------------ *)

let certified_session () =
  let h = stack_history () in
  let s = Engine.create () in
  for k = 1 to n_roots h do
    ignore (Engine.extend s (History.prefix_by_roots h k))
  done;
  (h, s)

let test_undo_at_boundary () =
  let _, s = certified_session () in
  Engine.truncate s;
  Alcotest.check_raises "engine refuses undo across the fold"
    (Invalid_argument "Engine.undo: cannot roll back across a truncation boundary")
    (fun () -> Engine.undo s)

let test_monitor_undo_at_boundary () =
  let h = stack_history () in
  let m = Engine.create () in
  for k = 1 to n_roots h do
    ignore (Engine.extend m (History.prefix_by_roots h k))
  done;
  Engine.truncate m;
  Alcotest.check_raises "monitor refuses undo across the fold"
    (Invalid_argument "Engine.undo: cannot roll back across a truncation boundary")
    (fun () -> Engine.undo m);
  (* A fresh session refuses with the distinct no-snapshot message. *)
  let fresh = Engine.create () in
  Alcotest.check_raises "no-snapshot message"
    (Invalid_argument "Engine.undo: no snapshot held (undo depth is one)")
    (fun () -> Engine.undo fresh)

let test_truncate_idempotent () =
  let _, s = certified_session () in
  Engine.truncate s;
  let floor1 = Engine.floor s
  and sum1 = Engine.summary s
  and count1 = Engine.truncations s
  and verdict1 = Engine.accepted s in
  Engine.truncate s;
  Alcotest.(check int) "floor unchanged" floor1 (Engine.floor s);
  Alcotest.(check bool) "summary unchanged" true (sum1 = Engine.summary s);
  Alcotest.(check int) "second truncate is a no-op" count1 (Engine.truncations s);
  Alcotest.(check bool) "verdict carried" verdict1 (Engine.accepted s)

let test_truncate_summary_contents () =
  let h, s = certified_session () in
  let serial_before =
    match Engine.verdict s with
    | Some (Engine.Accepted serial) -> serial
    | _ -> Alcotest.fail "stack history should be accepted"
  in
  Engine.truncate s;
  match Engine.summary s with
  | None -> Alcotest.fail "truncate must leave a summary"
  | Some sum ->
    Alcotest.(check int) "summary spans the history" (History.n_nodes h) sum.Engine.s_nodes;
    Alcotest.(check int) "all roots folded" (n_roots h) sum.Engine.s_roots;
    Alcotest.(check (list int)) "serial witness prefix kept" serial_before
      sum.Engine.s_serial;
    Alcotest.(check int) "floor is the folded node count" (History.n_nodes h)
      (Engine.floor s)

let test_truncate_releases_memory () =
  let _, s = certified_session () in
  let before = Engine.resident_estimate_words s in
  Engine.truncate s;
  let after = Engine.resident_estimate_words s in
  Alcotest.(check bool)
    (Printf.sprintf "dense estimate shrinks (%d -> %d words)" before after)
    true (after < before)

let test_truncate_rejected_refused () =
  (* Figure-3 style violation: two rw-conflicting leaf pairs serialized
     opposite ways by their schedules. *)
  let h =
    Repro_histlang.Syntax.parse
      "schedule S conflict rw\n\
       root T1 @ S T1\n\
       root T2 @ S T2\n\
       leaf a parent T1 w(x)\n\
       leaf b parent T1 w(y)\n\
       leaf c parent T2 w(x)\n\
       leaf d parent T2 w(y)\n\
       order S : a < c\n\
       order S : d < b\n"
  in
  let s = Engine.create () in
  (match Engine.extend s h with
  | Engine.Rejected _ -> ()
  | Engine.Accepted _ -> Alcotest.fail "expected a rejection");
  Alcotest.check_raises "only certified prefixes fold"
    (Invalid_argument "Engine.truncate: only an accepted (certified) prefix can be folded")
    (fun () -> Engine.truncate s)

let test_truncate_empty_noop () =
  let s = Engine.create () in
  Engine.truncate s;
  Alcotest.(check int) "no floor on the empty session" 0 (Engine.floor s);
  Alcotest.(check bool) "no summary on the empty session" true (Engine.summary s = None)

let test_window_validation () =
  Alcotest.check_raises "window must be positive"
    (Invalid_argument "Engine.create: window must be positive") (fun () ->
      ignore (Engine.create ~window:0 ()))

let test_explain_after_truncate () =
  (* Forensic accessors transparently restore the dense state. *)
  let _, s = certified_session () in
  Engine.truncate s;
  Alcotest.(check bool) "floor up after fold" true (Engine.floor s > 0);
  let cert = Engine.certificate s in
  Alcotest.(check int) "restore drops the floor" 0 (Engine.floor s);
  Alcotest.(check bool) "restored certificate is the accept one" true
    (match cert.Reduction.outcome with Ok _ -> true | Error _ -> false);
  Alcotest.(check bool) "restores counted" true (Engine.restores s > 0);
  Alcotest.(check int) "as forensic" (Engine.restores s) (cause s "forensic")

(* Feed text chunks to a session and an engine; the engine's verdict
   after each. *)
let feed_all eng chunks =
  let session = ref (Session.empty ()) in
  List.map
    (fun chunk ->
      session := Session.feed !session chunk;
      Engine.extend eng (Session.history !session))
    chunks

let flat_root i = Printf.sprintf "root T%d @ S T%d\nleaf l%d parent T%d w(x%d)\n" i i i i i

(* The restore backoff: a stream that appends under its oldest root every
   other append, far past 8x its window.  Each such append after a fold
   reaches into a folded transaction and restores; the watermark doubles
   up to 8x and counts from the restore, so consecutive restores are at
   least the then-current watermark apart in nodes.  (Counting from the
   floor alone, a restore at the cap — floor 0 — was followed by a fold at
   the very next append and a restore at the next old-root append.) *)
let test_restore_backoff () =
  let w = 4 in
  let eng = Engine.create ~window:w () in
  let session = ref (Session.empty ()) and at = ref [] in
  for i = 0 to 150 do
    let chunk =
      if i = 0 then "schedule S conflict rw\n" ^ flat_root 0
      else if i mod 2 = 0 then Printf.sprintf "leaf m%d parent T0 w(y%d)\n" i i
      else flat_root i
    in
    let n = History.n_nodes (Session.history !session) in
    session := Session.feed !session chunk;
    let before = Engine.restores eng in
    (match Engine.extend eng (Session.history !session) with
    | Engine.Accepted _ -> ()
    | Engine.Rejected _ -> Alcotest.fail "the stream has no conflicts");
    if Engine.restores eng > before then at := n :: !at
  done;
  let rec gaps j = function
    | a :: (b :: _ as rest) ->
      let watermark = min (w lsl j) (8 * w) in
      if b - a < watermark then
        Alcotest.failf "restore %d at node %d, %d nodes after restore %d (watermark %d)"
          (j + 1) b (b - a) j watermark;
      gaps (j + 1) rest
    | _ -> ()
  in
  gaps 1 (List.rev !at);
  Alcotest.(check bool)
    (Fmt.str "restored past the cap (%d restores)" (List.length !at))
    true
    (List.length !at >= 5);
  Alcotest.(check int) "every restore reached a folded transaction"
    (List.length !at) (cause eng "folded_tx")

(* Root [i] of a two-level stack: nodes [3i] (the root), [3i + 1] (its
   operation) and [3i + 2] (the operation's leaf). *)
let stack_root i =
  Printf.sprintf "root R%d @ SP R%d\ntx a%d @ SA parent R%d add(x%d)\nleaf w%d parent a%d w(x%d)\n"
    i i i i i i i i

let stack_roots k = List.init k (fun i -> (if i = 0 then preamble else "") ^ stack_root i)

(* Where auto-truncation folds, window 8: at the check before an append
   to a window of 8 or more nodes, the largest legal point that leaves at
   least 4 of them dense; else the smallest legal point above that, which
   keeps what tail it can; else everything. *)
let test_fold_point () =
  let fold_at chunks =
    let eng = Engine.create ~window:8 () in
    let vs = feed_all eng chunks in
    Alcotest.(check bool) "all accepted" true
      (List.for_all (function Engine.Accepted _ -> true | _ -> false) vs);
    Alcotest.(check int) "one fold" 1 (Engine.truncations eng);
    Engine.floor eng
  in
  let under_r0 = "tx b0 @ SA parent R0 add(y)\nleaf v0 parent b0 w(y)\n" in
  (* 9 nodes; legal points 3 and 6 (root boundaries), limit 5. *)
  Alcotest.(check int) "largest legal point at or below n - 4" 3
    (fold_at (stack_roots 4));
  (* Nodes 3-4 hang under R0, ruling out 1-4; root 1 is nodes 5-7.  At
     n = 8 nothing at or below 4 is legal; 5 is. *)
  Alcotest.(check int) "else the smallest legal point above it" 5
    (fold_at [ preamble ^ stack_root 0; under_r0; stack_root 1; stack_root 2 ]);
  (* Nodes 6-7 hang under R0, ruling out 1-7: only n = 8 is legal. *)
  Alcotest.(check int) "else everything" 8
    (fold_at (stack_roots 2 @ [ under_r0; stack_root 2 ]))

(* Each restore cause, and the windowed kernel path that avoids one. *)
let test_restore_causes () =
  (* An operation under a retained root after an auto-fold: the kernel
     decides it over the window. *)
  let eng = Engine.create ~window:8 () in
  let vs = feed_all eng (stack_roots 6 @ [ "tx b5 @ SA parent R5 add(y)\nleaf v5 parent b5 w(y)\n" ]) in
  Alcotest.(check bool) "all accepted" true
    (List.for_all (function Engine.Accepted _ -> true | _ -> false) vs);
  Alcotest.(check bool) "folded behind a retained tail" true
    (Engine.floor eng > 0 && Engine.floor eng < 19);
  Alcotest.(check int) "the kernel decided the old-root append" 1
    (Engine.stats eng).Engine.kernel_hits;
  Alcotest.(check int) "without a restore" 0 (Engine.restores eng);
  (match Engine.summary eng with
  | Some s ->
    Alcotest.(check (list int)) "summary: the folded roots in order"
      (List.filter (fun r -> r < s.Engine.s_nodes) [ 0; 3; 6; 9; 12; 15 ])
      s.Engine.s_serial
  | None -> Alcotest.fail "no summary after an auto-fold");
  (* An input pair into the folded prefix: an operation on a fresh item
     ordered before the first root's operation.  No observed pair comes
     with it (different items do not conflict), so only the input-order
     target check sees it. *)
  let eng = Engine.create ~window:4 () and plain = Engine.create () in
  let chunks =
    stack_roots 6 @ [ "root R9 @ SP R9\ntx a9 @ SA parent R9 add(z)\nleaf w9 parent a9 w(z)\norder SP : a9 < a0\n" ]
  in
  let vs = feed_all eng chunks and ps = feed_all plain chunks in
  let kind = function
    | Engine.Accepted _ -> "accept"
    | Engine.Rejected f -> Reduction.failure_kind f
  in
  Alcotest.(check (list string)) "same verdicts" (List.map kind ps) (List.map kind vs);
  Alcotest.(check int) "input pair below the floor" 1 (cause eng "below_floor");
  (* An observed pair into the folded prefix: the first root's item,
     now taken by a new root ahead of it. *)
  let eng = Engine.create ~window:4 () in
  let chunks =
    stack_roots 6 @ [ "root R9 @ SP R9\ntx a9 @ SA parent R9 add(x0)\nleaf w9 parent a9 w(x0)\norder SP : a9 < a0\n" ]
  in
  ignore (feed_all eng chunks);
  Alcotest.(check int) "observed pair below the floor" 1 (cause eng "below_floor");
  (* A level shift: [SP]'s roots first run leaves only, then an [SA]
     transaction, which lifts [SP] a level. *)
  let eng = Engine.create ~window:4 () in
  let leafy i = Printf.sprintf "root R%d @ SP R%d\nleaf w%d parent R%d w(x%d)\n" i i i i i in
  ignore
    (feed_all eng
       ((preamble ^ leafy 0) :: List.init 5 (fun i -> leafy (i + 1))
       @ [ "root R9 @ SP R9\ntx a9 @ SA parent R9 add(x9)\nleaf w9 parent a9 w(x9)\n" ]));
  Alcotest.(check int) "level shift" 1 (cause eng "level_shift");
  Alcotest.(check int) "counted once" 1 (Engine.restores eng)

let suite =
  [
    ( "truncate",
      [
        Alcotest.test_case "undo at boundary (engine)" `Quick test_undo_at_boundary;
        Alcotest.test_case "undo at boundary (monitor)" `Quick
          test_monitor_undo_at_boundary;
        Alcotest.test_case "truncate; truncate = truncate" `Quick
          test_truncate_idempotent;
        Alcotest.test_case "summary contents" `Quick test_truncate_summary_contents;
        Alcotest.test_case "dense estimate shrinks" `Quick
          test_truncate_releases_memory;
        Alcotest.test_case "rejected prefix refused" `Quick
          test_truncate_rejected_refused;
        Alcotest.test_case "empty session no-op" `Quick test_truncate_empty_noop;
        Alcotest.test_case "window validation" `Quick test_window_validation;
        Alcotest.test_case "explain after truncate restores" `Quick
          test_explain_after_truncate;
        Alcotest.test_case "restores back off past 8x the window" `Quick
          test_restore_backoff;
        Alcotest.test_case "auto-truncation fold point" `Quick test_fold_point;
        Alcotest.test_case "restore causes and the windowed kernel" `Quick
          test_restore_causes;
      ] );
    ( "truncate:props",
      [
        QCheck_alcotest.to_alcotest prop_truncation_parity;
        QCheck_alcotest.to_alcotest prop_truncation_not_vacuous;
        Alcotest.test_case "windowed = unwindowed on open-root streams" `Quick
          test_open_root_parity;
      ] );
  ]
