(* The compserve library core, in-process: per-root chunking against the
   [prefix_by_roots] chain it promises to reproduce, the wire codec
   (round-trips, incremental framing, malformed-line recovery), and the
   sharded multi-stream server — many concurrent streams certified with
   verdict parity against a plain monitor, stats barrier, graceful
   drain. *)
open Repro_model
open Repro_workload
module Engine = Repro_core.Engine
module Reduction = Repro_core.Reduction
module Server = Repro_runtime.Server
module Syntax = Repro_histlang.Syntax
module Json = Repro_obs.Json

let history_of_seed seed =
  let rng = Prng.create ~seed in
  match seed mod 4 with
  | 0 -> Gen.flat rng ~roots:(3 + (seed mod 3))
  | 1 -> Gen.stack rng ~levels:2 ~roots:(2 + (seed mod 3))
  | 2 -> Gen.fork rng ~branches:2 ~roots:3
  | _ -> Gen.general rng ~schedules:3 ~roots:(3 + (seed mod 2))

let arb_seed = QCheck.make ~print:string_of_int (QCheck.Gen.int_bound 1_000_000)

let n_roots h = List.length (History.roots h)

let stack_history () = Gen.stack (Prng.create ~seed:42) ~levels:2 ~roots:4

(* ------------------------------------------------------------------ *)
(* Chunker                                                             *)
(* ------------------------------------------------------------------ *)

(* Every concatenated chunk prefix parses to the corresponding
   root-prefix: same node count and labels (identifier assignment is the
   same root-major DFS), and the same Comp-C verdict. *)
let prop_chunks_parity =
  QCheck.Test.make ~count:80 ~name:"chunk prefixes = prefix_by_roots"
    arb_seed (fun seed ->
      let h = history_of_seed seed in
      let { Server.Chunks.preamble; chunks } = Server.Chunks.of_history h in
      let buf = Buffer.create 1024 in
      Buffer.add_string buf preamble;
      let ok = ref (List.length chunks = n_roots h) in
      List.iteri
        (fun i chunk ->
          Buffer.add_string buf chunk;
          let parsed = Syntax.parse (Buffer.contents buf) in
          let p = History.prefix_by_roots h (i + 1) in
          if History.n_nodes parsed <> History.n_nodes p then ok := false
          else begin
            for v = 0 to History.n_nodes p - 1 do
              if not (Label.equal (History.label parsed v) (History.label p v))
              then ok := false
            done;
            if
              Repro_core.Compc.is_correct parsed <> Repro_core.Compc.is_correct p
            then ok := false
          end)
        chunks;
      !ok)

let test_chunks_explicit_refused () =
  let h =
    Syntax.parse
      "schedule S conflict rw\nroot T @ S T\nleaf a parent T w(x)\nlog S : a\n"
  in
  (* Rebuild with an explicit spec through the builder is roundabout;
     parse rejects explicit specs in text, so drive the error through a
     bad schedule name instead, then check the Explicit refusal message
     against a handcrafted history. *)
  ignore h;
  let b = History.Builder.create () in
  let s = History.Builder.schedule b ~conflict:(Conflict.Explicit []) "S" in
  let t = History.Builder.root b ~sched:s (Label.v "T") in
  ignore (History.Builder.leaf b ~parent:t (Label.read "x"));
  let h = History.Builder.seal b in
  Alcotest.(check bool) "explicit spec refused" true
    (match Server.Chunks.of_history h with
    | exception Invalid_argument _ -> true
    | _ -> false)

(* ------------------------------------------------------------------ *)
(* Wire codec                                                          *)
(* ------------------------------------------------------------------ *)

let test_wire_roundtrip () =
  let reqs =
    [
      Server.Wire.Open { stream = "s1"; window = None };
      Server.Wire.Open { stream = "s2"; window = Some 256 };
      Server.Wire.Append { stream = "s1"; body = "root n0 @ S T\nleaf n1 parent n0 w(x)\n"; ctx = None };
      Server.Wire.Append { stream = "s1"; body = ""; ctx = None };
      Server.Wire.Verdict "s1";
      Server.Wire.Explain "s-x.y";
      Server.Wire.Close "s1";
      Server.Wire.Stats;
    ]
  in
  let encoded = String.concat "" (List.map Server.Wire.encode_request reqs) in
  let rec decode_all pos acc =
    if pos >= String.length encoded then List.rev acc
    else
      match Server.Wire.decode_request encoded ~pos with
      | Server.Wire.Got (r, n) -> decode_all (pos + n) (r :: acc)
      | _ -> Alcotest.fail "decode stalled on well-formed input"
  in
  Alcotest.(check bool) "request round-trip" true (decode_all 0 [] = reqs);
  let resps =
    [
      Server.Wire.Ok;
      Server.Wire.Verdict_r { stream = "s1"; accepted = true; detail = "0 3" };
      Server.Wire.Verdict_r
        { stream = "s1"; accepted = false; detail = "cycle_in_clusters" };
      Server.Wire.Json_r (Json.Obj [ ("a", Json.Int 1) ]);
      Server.Wire.Err "no such stream s9";
    ]
  in
  let encoded = String.concat "" (List.map Server.Wire.encode_response resps) in
  let rec decode_all pos acc =
    if pos >= String.length encoded then List.rev acc
    else
      match Server.Wire.decode_response encoded ~pos with
      | Server.Wire.Got (r, n) -> decode_all (pos + n) (r :: acc)
      | _ -> Alcotest.fail "response decode stalled"
  in
  Alcotest.(check bool) "response round-trip" true (decode_all 0 [] = resps)

let test_wire_incremental () =
  let full = Server.Wire.encode_request (Server.Wire.Append { stream = "s"; body = "hello\n"; ctx = None }) in
  (* Every strict prefix of a framed request wants more bytes. *)
  for cut = 0 to String.length full - 1 do
    match Server.Wire.decode_request (String.sub full 0 cut) ~pos:0 with
    | Server.Wire.Need_more -> ()
    | _ -> Alcotest.fail (Printf.sprintf "prefix of %d bytes should be incomplete" cut)
  done;
  match Server.Wire.decode_request full ~pos:0 with
  | Server.Wire.Got (Server.Wire.Append { body; _ }, n) ->
    Alcotest.(check int) "consumed everything" (String.length full) n;
    Alcotest.(check string) "body intact" "hello\n" body
  | _ -> Alcotest.fail "decode failed on the full frame"

let test_wire_malformed () =
  let buf = "frobnicate x\nstats\n" in
  match Server.Wire.decode_request buf ~pos:0 with
  | Server.Wire.Malformed (_, n) -> (
    (* The bad line is skipped; the connection resynchronizes. *)
    match Server.Wire.decode_request buf ~pos:n with
    | Server.Wire.Got (Server.Wire.Stats, _) -> ()
    | _ -> Alcotest.fail "did not resynchronize after a malformed line")
  | _ -> Alcotest.fail "malformed line not flagged"

(* Protocol v2: the trace-context token and the admin requests round-trip;
   v1 frames still decode; a bad context token skips its whole frame
   (line AND body) so the body bytes are never re-parsed as requests. *)
let test_wire_v2 () =
  let reqs =
    [
      Server.Wire.Append
        {
          stream = "s1";
          body = "hello\n";
          ctx = Some { Server.Wire.trace = 0xabc; parent = 0x20000000001 };
        };
      Server.Wire.Metrics;
      Server.Wire.Health;
      Server.Wire.Slow None;
      Server.Wire.Slow (Some 0.5);
      Server.Wire.Slow (Some 2.0);
    ]
  in
  let encoded = String.concat "" (List.map Server.Wire.encode_request reqs) in
  let rec decode_all pos acc =
    if pos >= String.length encoded then List.rev acc
    else
      match Server.Wire.decode_request encoded ~pos with
      | Server.Wire.Got (r, n) -> decode_all (pos + n) (r :: acc)
      | _ -> Alcotest.fail "v2 decode stalled on well-formed input"
  in
  Alcotest.(check bool) "v2 request round-trip" true (decode_all 0 [] = reqs);
  (* the text response frame round-trips, including its length prefix *)
  let resps =
    [ Server.Wire.Text_r "# TYPE x counter\nx 1\n"; Server.Wire.Ok ]
  in
  let encoded = String.concat "" (List.map Server.Wire.encode_response resps) in
  let rec decode_resps pos acc =
    if pos >= String.length encoded then List.rev acc
    else
      match Server.Wire.decode_response encoded ~pos with
      | Server.Wire.Got (r, n) -> decode_resps (pos + n) (r :: acc)
      | _ -> Alcotest.fail "text response decode stalled"
  in
  Alcotest.(check bool) "text response round-trip" true
    (decode_resps 0 [] = resps);
  (* a v1 append frame (no token) decodes with no context *)
  (match Server.Wire.decode_request "append s 6\nhello\n" ~pos:0 with
  | Server.Wire.Got (Server.Wire.Append { ctx = None; body = "hello\n"; _ }, _)
    ->
    ()
  | _ -> Alcotest.fail "v1 append frame no longer decodes");
  (* a malformed context token invalidates the frame but consumes the
     declared body, resynchronizing on the next frame *)
  let buf = "append s 6 t=zz:1\nhello\nstats\n" in
  match Server.Wire.decode_request buf ~pos:0 with
  | Server.Wire.Malformed (_, n) -> (
    match Server.Wire.decode_request buf ~pos:n with
    | Server.Wire.Got (Server.Wire.Stats, _) -> ()
    | _ -> Alcotest.fail "body bytes re-parsed after a bad context token")
  | _ -> Alcotest.fail "bad context token not flagged"

(* ------------------------------------------------------------------ *)
(* Server                                                              *)
(* ------------------------------------------------------------------ *)

let expect_ok = function
  | Server.Wire.Ok -> ()
  | Server.Wire.Err e -> Alcotest.fail ("unexpected err: " ^ e)
  | _ -> Alcotest.fail "expected ok"

(* Drive [streams] concurrent streams (seeded histories) through one
   server, interleaving appends round-robin, and return the per-stream
   verdict sequences. *)
let drive server ~streams ~window =
  let data =
    Array.init streams (fun i ->
        let h = history_of_seed (i * 37) in
        (Printf.sprintf "stream-%d" i, h, Server.Chunks.of_history h))
  in
  Array.iter
    (fun (sid, _, _) ->
      expect_ok (Server.request server (Server.Wire.Open { stream = sid; window })))
    data;
  let verdicts = Array.make streams [] in
  let max_chunks =
    Array.fold_left (fun m (_, _, c) -> max m (List.length c.Server.Chunks.chunks)) 0 data
  in
  for k = 0 to max_chunks - 1 do
    Array.iteri
      (fun i (sid, _, c) ->
        match List.nth_opt c.Server.Chunks.chunks k with
        | None -> ()
        | Some chunk ->
          let body = if k = 0 then c.Server.Chunks.preamble ^ chunk else chunk in
          (match Server.request server (Server.Wire.Append { stream = sid; body; ctx = None }) with
          | Server.Wire.Verdict_r { accepted; detail; _ } ->
            verdicts.(i) <- (accepted, detail) :: verdicts.(i)
          | Server.Wire.Err e -> Alcotest.fail ("append failed: " ^ e)
          | _ -> Alcotest.fail "expected a verdict"))
      data
  done;
  (data, Array.map List.rev verdicts)

(* The reference sequence: a plain in-process monitored session over the
   same prefix chain. *)
let reference h =
  let m = Engine.create () in
  List.init (n_roots h) (fun k ->
      match Engine.extend m (History.prefix_by_roots h (k + 1)) with
      | Engine.Accepted _ -> (true, "")
      | Engine.Rejected f -> (false, Reduction.failure_kind f))

let check_parity data verdicts =
  Array.iteri
    (fun i (sid, h, _) ->
      let ref_seq = reference h in
      let got = verdicts.(i) in
      Alcotest.(check int)
        (sid ^ ": one verdict per root") (List.length ref_seq) (List.length got);
      List.iter2
        (fun (ra, rf) (ga, gf) ->
          Alcotest.(check bool) (sid ^ ": acceptance parity") ra ga;
          if not ra then Alcotest.(check string) (sid ^ ": failure kind parity") rf gf)
        ref_seq got)
    data

let test_server_multi_stream () =
  let server = Server.create ~shards:4 () in
  let data, verdicts = drive server ~streams:12 ~window:None in
  check_parity data verdicts;
  Server.drain server

let test_server_windowed_parity () =
  (* Same drive with a tiny per-stream truncation window: verdicts must
     not move. *)
  let server = Server.create ~shards:4 ~window:6 () in
  let data, verdicts = drive server ~streams:8 ~window:None in
  check_parity data verdicts;
  Server.drain server

let test_server_stream_lifecycle () =
  let server = Server.create ~shards:2 () in
  let h = stack_history () in
  let { Server.Chunks.preamble; chunks } = Server.Chunks.of_history h in
  expect_ok (Server.request server (Server.Wire.Open { stream = "s"; window = None }));
  (match Server.request server (Server.Wire.Open { stream = "s"; window = None }) with
  | Server.Wire.Err _ -> ()
  | _ -> Alcotest.fail "double open must fail");
  (match Server.request server (Server.Wire.Append { stream = "nope"; body = "x"; ctx = None }) with
  | Server.Wire.Err _ -> ()
  | _ -> Alcotest.fail "append to unknown stream must fail");
  (* Verdict before any append: the empty prefix. *)
  (match Server.request server (Server.Wire.Verdict "s") with
  | Server.Wire.Verdict_r { accepted = true; detail = "empty"; _ } -> ()
  | _ -> Alcotest.fail "empty stream should report the vacuous accept");
  let body = preamble ^ List.hd chunks in
  (match Server.request server (Server.Wire.Append { stream = "s"; body; ctx = None }) with
  | Server.Wire.Verdict_r { accepted = true; _ } -> ()
  | _ -> Alcotest.fail "first chunk should be accepted");
  (* A parse error rolls the stream back; the next good append lands. *)
  (match Server.request server (Server.Wire.Append { stream = "s"; body = "leaf ) x\n"; ctx = None }) with
  | Server.Wire.Err _ -> ()
  | _ -> Alcotest.fail "bad chunk must be refused");
  (* Chunks that declare the next root's names and then fail — on an
     unknown parent, or on the extension contract (an order between two
     operations the stream already has) — leave no names behind. *)
  let append body = Server.request server (Server.Wire.Append { stream = "s"; body; ctx = None }) in
  let refused what = function
    | Server.Wire.Err _ -> ()
    | _ -> Alcotest.fail (what ^ " must be refused")
  in
  refused "unknown parent" (append (List.nth chunks 1 ^ "leaf zz parent nosuch r(x)\n"));
  let first = History.prefix_by_roots h 1 in
  let s, a, b =
    List.find_map
      (fun (s : History.schedule) ->
        match History.ops_of_schedule first s.History.sid with
        | a :: b :: _ when not (Repro_order.Rel.mem a b s.History.weak_out) -> Some (s, a, b)
        | a :: b :: _ -> Some (s, b, a)
        | _ -> None)
      (History.schedules first)
    |> Option.get
  in
  (match append (List.nth chunks 1 ^ Fmt.str "order %s : n%d < n%d\n" s.History.sname a b) with
  | Server.Wire.Err e ->
    Alcotest.(check bool) "contract refusal names itself" true
      (String.starts_with ~prefix:"not an extension" e)
  | _ -> Alcotest.fail "an order between two old nodes must be refused");
  (match append (List.nth chunks 1) with
  | Server.Wire.Verdict_r _ -> ()
  | Server.Wire.Err e -> Alcotest.fail ("stream wedged after bad chunk: " ^ e)
  | _ -> Alcotest.fail "expected a verdict");
  (* Re-declaring an accepted name is refused. *)
  refused "a duplicate node" (append (List.nth chunks 1));
  (* Explain carries the engine snapshot and the flight recorder. *)
  (match Server.request server (Server.Wire.Explain "s") with
  | Server.Wire.Json_r (Json.Obj fields) ->
    Alcotest.(check bool) "explain has engine snapshot" true
      (List.mem_assoc "engine" fields);
    Alcotest.(check bool) "explain has flight recorder" true
      (List.mem_assoc "flight_recorder" fields)
  | _ -> Alcotest.fail "expected json");
  expect_ok (Server.request server (Server.Wire.Close "s"));
  (match Server.request server (Server.Wire.Close "s") with
  | Server.Wire.Err _ -> ()
  | _ -> Alcotest.fail "double close must fail");
  Server.drain server

(* A chunk that orders two nodes of earlier chunks does not extend the
   stream: the engine only replays rules on pairs with a new endpoint, so
   accepting it would certify a history that [compcheck] rejects (here a
   cluster cycle T0 -> T1 -> T0).  It must be refused, leave the stream at
   its two-chunk state, and the chunk without that line must land. *)
let test_server_non_extension () =
  let server = Server.create ~shards:1 () in
  let append body =
    Server.request server (Server.Wire.Append { stream = "s"; body; ctx = None })
  in
  expect_ok (Server.request server (Server.Wire.Open { stream = "s"; window = None }));
  let lines ls = String.concat "" (List.map (fun l -> l ^ "\n") ls) in
  let accepted what = function
    | Server.Wire.Verdict_r { accepted = true; detail = ""; _ } -> ()
    | _ -> Alcotest.fail (what ^ ": expected a bare accept")
  in
  accepted "chunk 1"
    (append
       (lines
          [
            "schedule SP conflict same-item"; "schedule SA conflict rw";
            "root n0 @ SP T0"; "tx n1 @ SA parent n0 add(x1)"; "leaf n2 parent n1 w(x1)";
            "tx n3 @ SA parent n0 add(x2)"; "leaf n4 parent n3 w(x2)";
          ]));
  accepted "chunk 2"
    (append
       (lines
          [
            "root n5 @ SP T1"; "tx n6 @ SA parent n5 add(x1)"; "leaf n7 parent n6 w(x1)";
            "tx n8 @ SA parent n5 add(x2)"; "leaf n9 parent n8 w(x2)"; "order SP : n1 < n6";
          ]));
  let chunk3 =
    [ "root n10 @ SP T2"; "tx n11 @ SA parent n10 add(x9)"; "leaf n12 parent n11 w(x9)" ]
  in
  (match append (lines (chunk3 @ [ "order SP : n8 < n3" ])) with
  | Server.Wire.Err e ->
    Alcotest.(check bool) ("refusal: " ^ e) true (String.starts_with ~prefix:"not an extension: " e)
  | _ -> Alcotest.fail "an order between two old nodes was accepted");
  (match Server.request server (Server.Wire.Verdict "s") with
  | Server.Wire.Verdict_r { accepted = true; detail; _ } ->
    Alcotest.(check string) "verdict of the two-chunk state" "0 5" detail
  | _ -> Alcotest.fail "expected the two-chunk accept");
  accepted "chunk 3 without its order line" (append (lines chunk3));
  Server.drain server

let test_server_stats_and_drain () =
  let server = Server.create ~shards:3 () in
  let h = stack_history () in
  let { Server.Chunks.preamble; chunks } = Server.Chunks.of_history h in
  for i = 0 to 5 do
    let sid = Printf.sprintf "t%d" i in
    expect_ok (Server.request server (Server.Wire.Open { stream = sid; window = None }));
    expect_ok
      (match
         Server.request server
           (Server.Wire.Append { stream = sid; body = preamble ^ List.hd chunks; ctx = None })
       with
      | Server.Wire.Verdict_r _ -> Server.Wire.Ok
      | r -> r)
  done;
  (match Server.request server Server.Wire.Stats with
  | Server.Wire.Json_r (Json.Obj fields) -> (
    Alcotest.(check bool) "stats schema" true
      (List.assoc_opt "schema" fields = Some (Json.String "compserve-stats/1"));
    match List.assoc_opt "shards" fields with
    | Some (Json.List shards) ->
      Alcotest.(check int) "one report per shard" 3 (List.length shards);
      let streams =
        List.fold_left
          (fun acc -> function
            | Json.Obj f -> (
              match List.assoc_opt "streams" f with
              | Some (Json.Int n) -> acc + n
              | _ -> acc)
            | _ -> acc)
          0 shards
      in
      Alcotest.(check int) "all streams accounted for" 6 streams
    | _ -> Alcotest.fail "stats lacks shard reports")
  | _ -> Alcotest.fail "expected stats json");
  Server.drain server;
  (match Server.request server (Server.Wire.Verdict "t0") with
  | Server.Wire.Err msg ->
    Alcotest.(check string) "post-drain refusal" "server draining" msg
  | _ -> Alcotest.fail "drained server must refuse work");
  (* Idempotent. *)
  Server.drain server

(* ------------------------------------------------------------------ *)
(* Admin plane and request tracing                                     *)
(* ------------------------------------------------------------------ *)

module Labels = Repro_obs.Labels
module Span = Repro_obs.Span

let contains s sub =
  let n = String.length s and m = String.length sub in
  let rec go i = i + m <= n && (String.sub s i m = sub || go (i + 1)) in
  m = 0 || go 0

(* The admin plane over live traffic: metrics scrapes as Prometheus
   exposition over a merged quiescent snapshot, health reports the
   topology, and with [slow_s] 0 every append lands in the slow log with
   a series string that decodes back through [Labels.decode_series]. *)
let test_server_admin_plane () =
  let server = Server.create ~shards:2 ~slow_s:0.0 () in
  let h = stack_history () in
  let { Server.Chunks.preamble; chunks } = Server.Chunks.of_history h in
  for i = 0 to 3 do
    let sid = Printf.sprintf "a%d" i in
    expect_ok
      (Server.request server (Server.Wire.Open { stream = sid; window = None }));
    match
      Server.request server
        (Server.Wire.Append
           { stream = sid; body = preamble ^ List.hd chunks; ctx = None })
    with
    | Server.Wire.Verdict_r _ -> ()
    | _ -> Alcotest.fail "append failed"
  done;
  (match Server.request server Server.Wire.Metrics with
  | Server.Wire.Text_r text ->
    List.iter
      (fun needle ->
        Alcotest.(check bool) (Printf.sprintf "exposition has %S" needle) true
          (contains text needle))
      [ "# TYPE serve_open counter"; "# TYPE serve_append counter" ]
  | _ -> Alcotest.fail "metrics must answer with a text payload");
  (match Server.request server Server.Wire.Health with
  | Server.Wire.Json_r j ->
    Alcotest.(check bool) "health schema" true
      (Json.member "schema" j = Some (Json.String "compserve-health/1"));
    Alcotest.(check bool) "health status ok" true
      (Json.member "status" j = Some (Json.String "ok"));
    Alcotest.(check bool) "health shard count" true
      (Json.member "shards" j = Some (Json.Int 2));
    Alcotest.(check bool) "health stream count" true
      (Json.member "streams" j = Some (Json.Int 4))
  | _ -> Alcotest.fail "health must answer with json");
  (match Server.request server (Server.Wire.Slow None) with
  | Server.Wire.Json_r j ->
    Alcotest.(check bool) "slow schema" true
      (Json.member "schema" j = Some (Json.String "compserve-slow/1"));
    Alcotest.(check bool) "threshold 0 retains every append" true
      (Json.member "count" j = Some (Json.Int 4));
    (match Json.member "events" j with
    | Some (Json.List (e :: _)) -> (
      match Json.member "series" e with
      | Some (Json.String series) ->
        let name, labels = Labels.decode_series series in
        Alcotest.(check string) "slow event name" "slow_append" name;
        Alcotest.(check bool) "slow event labels decode" true
          (Labels.find "stream" labels <> None
          && Labels.find "wall_us" labels <> None)
      | _ -> Alcotest.fail "slow event without a series string")
    | _ -> Alcotest.fail "slow without events")
  | _ -> Alcotest.fail "slow must answer with json");
  (* an impossible threshold filters everything out *)
  (match Server.request server (Server.Wire.Slow (Some 3600.0)) with
  | Server.Wire.Json_r j ->
    Alcotest.(check bool) "1h threshold retains nothing" true
      (Json.member "count" j = Some (Json.Int 0))
  | _ -> Alcotest.fail "slow with threshold must answer");
  Server.drain server

(* The tentpole acceptance shape: one traced in-process request yields
   one connected span tree — queue-wait and encode under the caller's
   context parent, the engine's append (with its path label) under the
   queue-wait. *)
let test_server_span_tree () =
  let server = Server.create ~shards:2 ~span_rate:1.0 () in
  let h = stack_history () in
  let { Server.Chunks.preamble; chunks } = Server.Chunks.of_history h in
  expect_ok
    (Server.request server (Server.Wire.Open { stream = "s"; window = None }));
  let trace = 0x42 and root = 0x777 in
  (match
     Server.request server
       (Server.Wire.Append
          {
            stream = "s";
            body = preamble ^ List.hd chunks;
            ctx = Some { Server.Wire.trace; parent = root };
          })
   with
  | Server.Wire.Verdict_r { accepted = true; _ } -> ()
  | _ -> Alcotest.fail "traced append failed");
  Server.drain server;
  let spans = Server.spans_snapshot server in
  let views =
    List.filter (fun v -> v.Span.v_trace = trace) (Span.spans spans)
  in
  Alcotest.(check (list string)) "span tree members"
    [ "serve.queue_wait"; "engine.append"; "serve.encode" ]
    (List.map (fun v -> v.Span.v_name) views);
  let find name = List.find (fun v -> v.Span.v_name = name) views in
  let qw = find "serve.queue_wait" in
  let eng = find "engine.append" in
  let enc = find "serve.encode" in
  Alcotest.(check bool) "queue-wait under the caller's span" true
    (qw.Span.v_parent = root);
  Alcotest.(check bool) "engine append under the queue-wait" true
    (eng.Span.v_parent = qw.Span.v_id);
  Alcotest.(check bool) "encode a sibling under the caller's span" true
    (enc.Span.v_parent = root);
  Alcotest.(check bool) "engine span carries a path label" true
    (Labels.find "path" eng.Span.v_labels = Some "initial");
  Alcotest.(check bool) "engine span carries the verdict" true
    (Labels.find "verdict" eng.Span.v_labels = Some "accept");
  Alcotest.(check bool) "intervals nest: engine within queue span start" true
    (qw.Span.v_t0 <= eng.Span.v_t0 && eng.Span.v_t1 <= enc.Span.v_t1);
  Alcotest.(check int) "the untraced open recorded nothing" 3
    (List.length (Span.spans spans))

(* Sampling rides the wire context deterministically: at rate 0.5 the
   server keeps exactly the traces whose ids hash under the rate, and
   requests without a context never record. *)
let test_server_span_sampling () =
  let server = Server.create ~shards:1 ~span_rate:0.5 () in
  let h = stack_history () in
  let { Server.Chunks.preamble; chunks } = Server.Chunks.of_history h in
  let probe = Span.create ~rate:0.5 () in
  let expected = ref 0 in
  for i = 0 to 19 do
    let sid = Printf.sprintf "s%d" i in
    expect_ok
      (Server.request server (Server.Wire.Open { stream = sid; window = None }));
    let trace = 1000 + i in
    if Span.sampled probe trace then incr expected;
    match
      Server.request server
        (Server.Wire.Append
           {
             stream = sid;
             body = preamble ^ List.hd chunks;
             ctx = Some { Server.Wire.trace; parent = 0 };
           })
    with
    | Server.Wire.Verdict_r _ -> ()
    | _ -> Alcotest.fail "append failed"
  done;
  Server.drain server;
  let spans = Server.spans_snapshot server in
  let traces =
    List.sort_uniq compare
      (List.map (fun v -> v.Span.v_trace) (Span.spans spans))
  in
  Alcotest.(check int) "server kept exactly the sampled traces" !expected
    (List.length traces);
  Alcotest.(check bool) "every kept trace passes the client's own test" true
    (List.for_all (Span.sampled probe) traces)

(* ------------------------------------------------------------------ *)
(* Coverage registry                                                   *)
(* ------------------------------------------------------------------ *)

module Coverage = Repro_obs.Coverage
module Metrics = Repro_obs.Metrics

(* The canonical key set is pinned verbatim: adding, renaming or
   reordering a point is a schema change and must touch this list, the
   committed fixture (test/golden/coverage_v1.json) and DESIGN.md
   together. *)
let golden_coverage_keys =
  [
    "engine.append.path.initial";
    "engine.append.path.fast";
    "engine.append.path.delta";
    "engine.append.path.kernel";
    "engine.append.path.full";
    "engine.appends";
    "engine.delta.via.index";
    "engine.delta.via.scan";
    "engine.truncations";
    "engine.restores";
    "engine.restore.below_floor";
    "engine.restore.folded_tx";
    "engine.restore.level_shift";
    "engine.restore.forensic";
    "reduction.checks";
    "reduction.steps";
    "reduction.accept";
    "reduction.reject";
    "reduction.failure.front_not_cc";
    "reduction.failure.no_calculation";
    "reduction.failure.intra_contradiction";
    "serve.open";
    "serve.append";
    "serve.close";
  ]

let test_coverage_registry () =
  Alcotest.(check (list string)) "stable key set" golden_coverage_keys
    Coverage.keys;
  (* an empty registry exports the full key set, all zeros *)
  let empty = Coverage.of_metrics (Metrics.create ()) in
  Alcotest.(check (list string)) "empty export keeps every key"
    golden_coverage_keys (List.map fst empty);
  Alcotest.(check bool) "empty export is all zeros" true
    (List.for_all (fun (_, v) -> v = 0) empty);
  (* extra labels (the server's shard=i) sum into their point; the
     required path label still separates the per-path points *)
  let m = Metrics.create () in
  Metrics.incr m ~by:2
    ~labels:(Labels.v [ ("path", "fast"); ("shard", "0") ])
    "monitor.append";
  Metrics.incr m ~by:3
    ~labels:(Labels.v [ ("path", "fast"); ("shard", "1") ])
    "monitor.append";
  Metrics.incr m ~labels:(Labels.v [ ("path", "full") ]) "monitor.append";
  Metrics.incr m ~by:4 ~labels:(Labels.v [ ("shard", "1") ]) "serve.append";
  let points = Coverage.of_metrics m in
  Alcotest.(check int) "shards summed into the fast point" 5
    (List.assoc "engine.append.path.fast" points);
  Alcotest.(check int) "full point separate" 1
    (List.assoc "engine.append.path.full" points);
  Alcotest.(check int) "serve appends summed" 4
    (List.assoc "serve.append" points);
  (* a served stream's counters feed the same document the server's
     stats response embeds *)
  let server = Server.create ~shards:2 () in
  let h = stack_history () in
  let { Server.Chunks.preamble; chunks } = Server.Chunks.of_history h in
  expect_ok
    (Server.request server (Server.Wire.Open { stream = "c"; window = None }));
  (match
     Server.request server
       (Server.Wire.Append
          { stream = "c"; body = preamble ^ List.hd chunks; ctx = None })
   with
  | Server.Wire.Verdict_r _ -> ()
  | _ -> Alcotest.fail "append failed");
  (match Server.request server Server.Wire.Stats with
  | Server.Wire.Json_r j -> (
    match Json.member "coverage" j with
    | Some cov -> (
      Alcotest.(check bool) "stats embeds coverage/1" true
        (Json.member "schema" cov = Some (Json.String Coverage.schema));
      match Json.member "points" cov with
      | Some (Json.Obj points) ->
        Alcotest.(check (list string)) "stats coverage keys"
          golden_coverage_keys (List.map fst points);
        Alcotest.(check bool) "served append counted" true
          (List.assoc_opt "serve.append" points = Some (Json.Int 1))
      | _ -> Alcotest.fail "coverage without points")
    | None -> Alcotest.fail "stats without coverage")
  | _ -> Alcotest.fail "expected stats json");
  Server.drain server

let suite =
  [
    ( "server",
      [
        Alcotest.test_case "chunker refuses explicit specs" `Quick
          test_chunks_explicit_refused;
        Alcotest.test_case "wire round-trip" `Quick test_wire_roundtrip;
        Alcotest.test_case "wire incremental framing" `Quick test_wire_incremental;
        Alcotest.test_case "wire malformed recovery" `Quick test_wire_malformed;
        Alcotest.test_case "wire v2: trace context and admin" `Quick
          test_wire_v2;
        Alcotest.test_case "multi-stream verdict parity" `Quick
          test_server_multi_stream;
        Alcotest.test_case "windowed multi-stream parity" `Quick
          test_server_windowed_parity;
        Alcotest.test_case "stream lifecycle" `Quick test_server_stream_lifecycle;
        Alcotest.test_case "non-extension chunk refused" `Quick test_server_non_extension;
        Alcotest.test_case "stats barrier and drain" `Quick
          test_server_stats_and_drain;
        Alcotest.test_case "admin plane" `Quick test_server_admin_plane;
        Alcotest.test_case "request span tree" `Quick test_server_span_tree;
        Alcotest.test_case "span sampling over the wire" `Quick
          test_server_span_sampling;
        Alcotest.test_case "coverage registry" `Quick test_coverage_registry;
      ] );
    ("server:props", [ QCheck_alcotest.to_alcotest prop_chunks_parity ]);
  ]
