(* The incremental monitor ([Engine.extend]) against the batch checker:
   prefix-equivalence on generated executions, undo semantics, the
   extension edge cases (empty delta, first delta into a previously empty
   schedule, universe growth from the empty prefix), and the incremental
   order kernel on open-transaction streams — appends that land
   operations under {e old} roots, where levels stay stable but the
   structural fast paths do not apply. *)
open Repro_model
open Repro_workload
module Compc = Repro_core.Compc
module Engine = Repro_core.Engine
module Observed = Repro_core.Observed
module Rel = Repro_order.Rel
module Metrics = Repro_obs.Metrics
module Labels = Repro_obs.Labels
module Sink = Repro_obs.Sink

let history_of_seed seed =
  let rng = Prng.create ~seed in
  match seed mod 5 with
  | 0 -> Gen.flat rng ~roots:(2 + (seed mod 4))
  | 1 -> Gen.stack rng ~levels:(2 + (seed mod 3)) ~roots:(2 + (seed mod 3))
  | 2 -> Gen.fork rng ~branches:2 ~roots:(3 + (seed mod 2))
  | 3 -> Gen.join rng ~branches:2 ~roots:3
  | _ -> Gen.general rng ~schedules:(3 + (seed mod 3)) ~roots:(3 + (seed mod 2))

let arb_seed = QCheck.make ~print:string_of_int (QCheck.Gen.int_bound 1_000_000)

let accepted_verdict = function
  | Engine.Accepted _ -> true
  | Engine.Rejected _ -> false

let n_roots h = List.length (History.roots h)

(* ------------------------------------------------------------------ *)
(* Unit tests                                                          *)
(* ------------------------------------------------------------------ *)

(* A deterministic 2-level stack used by the unit tests. *)
let stack_history () = Gen.stack (Prng.create ~seed:42) ~levels:2 ~roots:4

let test_prefix_chain_shape () =
  let h = stack_history () in
  let k = n_roots h in
  let prev = ref (History.prefix_by_roots h 0) in
  for i = 1 to k do
    let cur = History.prefix_by_roots h i in
    Alcotest.(check bool)
      "node count grows" true
      (History.n_nodes cur > History.n_nodes !prev);
    (* Shared nodes keep identifiers and labels across the chain. *)
    for v = 0 to History.n_nodes !prev - 1 do
      Alcotest.(check bool)
        "shared label stable" true
        (Label.equal (History.label cur v) (History.label !prev v))
    done;
    prev := cur
  done;
  Alcotest.(check int)
    "full prefix spans the history" (History.n_nodes h)
    (History.n_nodes !prev)

let test_full_prefix_verdict () =
  let h = stack_history () in
  let p = History.prefix_by_roots h (n_roots h) in
  Alcotest.(check bool)
    "verdict invariant under prefix relabelling" (Compc.is_correct h)
    (Compc.is_correct p)

let test_monitor_from_empty () =
  (* Universe growth from the empty prefix: every schedule starts empty,
     so the first real append is a delta into fresh schedules. *)
  let h = stack_history () in
  let m = Engine.create () in
  Alcotest.(check bool) "empty prefix accepted" true (Engine.accepted m);
  Alcotest.(check int) "no pairs yet" 0 (Engine.obs_pairs m);
  for k = 0 to n_roots h do
    let p = History.prefix_by_roots h k in
    let v = Engine.extend m p in
    Alcotest.(check bool)
      (Printf.sprintf "prefix %d verdict" k)
      (Compc.is_correct p) (accepted_verdict v)
  done

let test_empty_delta_fastpath () =
  let h = stack_history () in
  let m = Engine.create () in
  let p = History.prefix_by_roots h 2 in
  let v1 = Engine.extend m p in
  let pairs = Engine.obs_pairs m in
  (* Re-appending the same prefix is an extension with an empty delta: the
     verdict must be carried on the fast path without a reduction. *)
  let v2 = Engine.extend m (History.prefix_by_roots h 2) in
  Alcotest.(check bool)
    "verdict unchanged" (accepted_verdict v1) (accepted_verdict v2);
  Alcotest.(check int) "pairs unchanged" pairs (Engine.obs_pairs m);
  Alcotest.(check bool)
    "fast path taken" true
    ((Engine.stats m).Engine.fastpath_hits >= 1)

let test_undo_restores () =
  let h = stack_history () in
  let m = Engine.create () in
  ignore (Engine.extend m (History.prefix_by_roots h 2));
  let acc2 = Engine.accepted m in
  let pairs2 = Engine.obs_pairs m in
  let v3 = Engine.extend m (History.prefix_by_roots h 3) in
  Engine.undo m;
  Alcotest.(check bool) "verdict restored" acc2 (Engine.accepted m);
  Alcotest.(check int) "pairs restored" pairs2 (Engine.obs_pairs m);
  Alcotest.(check int)
    "history restored" 2
    (match Engine.history m with Some p -> n_roots p | None -> -1);
  (* Replaying the rolled-back candidate reproduces its verdict. *)
  let v3' = Engine.extend m (History.prefix_by_roots h 3) in
  Alcotest.(check bool)
    "replay agrees" (accepted_verdict v3) (accepted_verdict v3')

let test_undo_depth () =
  let m = Engine.create () in
  Alcotest.check_raises "undo before any append"
    (Invalid_argument "Engine.undo: no snapshot held (undo depth is one)")
    (fun () -> Engine.undo m);
  let h = stack_history () in
  ignore (Engine.extend m (History.prefix_by_roots h 1));
  Engine.undo m;
  Alcotest.(check bool) "back to empty" true (Engine.history m = None);
  Alcotest.check_raises "second undo"
    (Invalid_argument "Engine.undo: no snapshot held (undo depth is one)")
    (fun () -> Engine.undo m)

let test_undo_refork_allocation_linear () =
  (* The certify protocol's append/undo/append shape: a re-extension of a
     donated snapshot forks the conflict memo, and each accepted fork
     becomes the next snapshot.  A fork must size its rank arrays to the
     extension, never double the source's capacity — along this chain the
     doubling compounds (every accept-after-undo doubles the arrays), which
     once ran the simulator's 427-node committed prefix into gigabytes. *)
  let h = Gen.stack (Prng.create ~seed:7) ~levels:2 ~roots:24 in
  let m = Engine.create () in
  ignore (Engine.extend m (History.prefix_by_roots h 1));
  let a0 = Gc.allocated_bytes () in
  for i = 2 to n_roots h do
    ignore (Engine.extend m (History.prefix_by_roots h i));
    Engine.undo m;
    ignore (Engine.extend m (History.prefix_by_roots h i))
  done;
  let mb = (Gc.allocated_bytes () -. a0) /. 1048576.0 in
  Alcotest.(check bool)
    (Printf.sprintf "fork-chain allocation stays linear (%.1f MB)" mb)
    true (mb < 64.0)

let test_non_extension_rejected () =
  let h = stack_history () in
  let m = Engine.create () in
  ignore (Engine.extend m (History.prefix_by_roots h 3));
  Alcotest.check_raises "shrinking append"
    (Invalid_argument
       "History.extend_cache: target has fewer nodes than source") (fun () ->
      ignore (Engine.extend m (History.prefix_by_roots h 1)))

(* ------------------------------------------------------------------ *)
(* The incremental order kernel: open-transaction streams               *)
(* ------------------------------------------------------------------ *)

(* The [prefix_by_roots] chains above always hang new nodes under new
   roots, so they exercise the delta paths.  The kernel path is for the
   other streaming shape: operations appended to transactions that are
   already open.  Both streams below keep schedule levels stable while
   every round parents its new subtransaction under an {e old} root. *)

let by_path metrics p =
  Metrics.counter_value metrics ~labels:(Labels.v [ ("path", p) ]) "monitor.append"

(* Accepting stream: one root whose subtransactions all update the same
   item, serialized by the low-level schedule's log.  Every round adds a
   conflicting write, so the delta is never empty and the root's intra
   feasibility graph is genuinely re-checked. *)
let open_stream k =
  let open History.Builder in
  let b = create () in
  let sp = schedule b ~conflict:Conflict.Same_item "SP" in
  let sa = schedule b ~conflict:Conflict.Rw "SA" in
  let r0 = root b ~sched:sp (Label.v "T1") in
  let txs = ref [] and ws = ref [] in
  for _ = 1 to k do
    let a = tx b ~parent:r0 ~sched:sa (Label.v ~args:[ "x" ] "add") in
    let w = leaf b ~parent:a (Label.v ~args:[ "x" ] "w") in
    txs := a :: !txs;
    ws := w :: !ws
  done;
  log b ~sched:sp (List.rev !txs);
  log b ~sched:sa (List.rev !ws);
  seal b

(* Rejecting stream, figure-3 shaped: two roots that each invoke both
   low-level schedules, which serialize them in opposite directions.  The
   offending subtransaction arrives in round 2 under the old root [n0],
   and the cyclic observed pair it climbs to lands entirely inside the
   old block — the case the kernel exists for.  Round 3 extends the
   already-rejected prefix (the verdict must stay sticky). *)
let reject_stream k =
  let open History.Builder in
  let b = create () in
  let sp = schedule b ~conflict:Conflict.Same_item "SP" in
  let sq = schedule b ~conflict:Conflict.Same_item "SQ" in
  let sa = schedule b ~conflict:Conflict.Rw "SA" in
  let sb = schedule b ~conflict:Conflict.Rw "SB" in
  let n0 = root b ~sched:sp (Label.v "T1") in
  let n1 = root b ~sched:sq (Label.v "T2") in
  (* round 1: SA serializes n0's write before n1's; SB only sees n1 *)
  let a0 = tx b ~parent:n0 ~sched:sa (Label.v ~args:[ "x" ] "add") in
  let wa0 = leaf b ~parent:a0 (Label.v ~args:[ "x" ] "w") in
  let a1 = tx b ~parent:n1 ~sched:sa (Label.v ~args:[ "x" ] "add") in
  let wa1 = leaf b ~parent:a1 (Label.v ~args:[ "x" ] "w") in
  let b1 = tx b ~parent:n1 ~sched:sb (Label.v ~args:[ "y" ] "add") in
  let wb1 = leaf b ~parent:b1 (Label.v ~args:[ "y" ] "w") in
  (* round 2: SB serializes n1's write before n0's — opposite of SA *)
  let sp_ops = ref [ a0 ] and sa_ops = ref [ wa0; wa1 ] and sb_ops = ref [ wb1 ] in
  if k >= 2 then begin
    let b0 = tx b ~parent:n0 ~sched:sb (Label.v ~args:[ "y" ] "add") in
    let wb0 = leaf b ~parent:b0 (Label.v ~args:[ "y" ] "w") in
    sp_ops := !sp_ops @ [ b0 ];
    sb_ops := !sb_ops @ [ wb0 ]
  end;
  (* round 3: an unrelated write under n0 after the rejection *)
  if k >= 3 then begin
    let a2 = tx b ~parent:n0 ~sched:sa (Label.v ~args:[ "z" ] "add") in
    let wa2 = leaf b ~parent:a2 (Label.v ~args:[ "z" ] "w") in
    sp_ops := !sp_ops @ [ a2 ];
    sa_ops := !sa_ops @ [ wa2 ]
  end;
  log b ~sched:sp !sp_ops;
  log b ~sched:sq [ a1; b1 ];
  log b ~sched:sa !sa_ops;
  log b ~sched:sb !sb_ops;
  seal b

let test_kernel_accepting_stream () =
  let rounds = 6 in
  let metrics = Metrics.create () in
  let m = Engine.create ~obs:(Sink.v ~metrics ()) () in
  for k = 1 to rounds do
    let p = open_stream k in
    let v = Engine.extend m p in
    Alcotest.(check bool)
      (Printf.sprintf "round %d matches the batch checker" k)
      (Compc.is_correct p) (accepted_verdict v);
    Alcotest.(check bool)
      (Printf.sprintf "round %d accepted" k)
      true (accepted_verdict v)
  done;
  (* Round 1 is the initial analysis; every later round appends under the
     old root, which only the kernel path decides. *)
  let stats = Engine.stats m in
  Alcotest.(check int) "kernel decides the open-transaction appends"
    (rounds - 1) stats.Engine.kernel_hits;
  Alcotest.(check int) "labeled series agrees with the counter"
    stats.Engine.kernel_hits (by_path metrics "kernel");
  Alcotest.(check int) "no full reductions after the first round" 0
    (by_path metrics "full")

let test_kernel_rejecting_stream () =
  let metrics = Metrics.create () in
  let m = Engine.create ~obs:(Sink.v ~metrics ()) () in
  let verdicts =
    List.map
      (fun k ->
        let p = reject_stream k in
        let v = Engine.extend m p in
        Alcotest.(check bool)
          (Printf.sprintf "round %d matches the batch checker" k)
          (Compc.is_correct p) (accepted_verdict v);
        v)
      [ 1; 2; 3 ]
  in
  (match verdicts with
  | [ v1; v2; v3 ] ->
    Alcotest.(check bool) "one-sided serialization accepted" true
      (accepted_verdict v1);
    Alcotest.(check bool) "opposite serialization rejected" false
      (accepted_verdict v2);
    Alcotest.(check bool) "rejection is sticky under extension" false
      (accepted_verdict v3)
  | _ -> Alcotest.fail "three rounds expected");
  Alcotest.(check int) "both extensions decided by the kernel" 2
    (Engine.stats m).Engine.kernel_hits

(* The kernel's inputs: Observed.extend's reported delta is exactly the
   pairwise growth of each relation — same pairs as two full diffs of the
   persistent relations, at O(delta) cost. *)
let prop_extend_delta_exact =
  QCheck.Test.make ~name:"Observed.extend delta = pairwise relation diff"
    ~count:200 arb_seed (fun seed ->
      let h = history_of_seed seed in
      let inc = Observed.inc_create () in
      let prev = ref (Observed.compute (History.prefix_by_roots h 0)) in
      let n_old = ref (History.n_nodes (History.prefix_by_roots h 0)) in
      let ok = ref true in
      for k = 1 to n_roots h do
        let p = History.prefix_by_roots h k in
        let rel, delta = Observed.extend ~inc ~prev:!prev ~n_old:!n_old p in
        let exact d grown old =
          Rel.equal (Rel.of_list d) (Rel.diff grown old)
        in
        if
          not
            (exact delta.Observed.d_obs rel.Observed.obs !prev.Observed.obs
            && exact delta.Observed.d_inp rel.Observed.inp !prev.Observed.inp
            && exact delta.Observed.d_inp_strong rel.Observed.inp_strong
                 !prev.Observed.inp_strong)
        then ok := false;
        prev := rel;
        n_old := History.n_nodes p
      done;
      !ok)

(* ------------------------------------------------------------------ *)
(* Properties                                                          *)
(* ------------------------------------------------------------------ *)

(* The pinning property of the whole PR: after k appends the monitor's
   verdict equals the batch checker on the k-prefix, for every k. *)
let prop_prefix_equivalence =
  QCheck.Test.make ~name:"monitor verdict = batch checker on every prefix"
    ~count:500 arb_seed (fun seed ->
      let h = history_of_seed seed in
      let m = Engine.create () in
      let ok = ref true in
      for k = 0 to n_roots h do
        let p = History.prefix_by_roots h k in
        let v = Engine.extend m p in
        if accepted_verdict v <> Compc.is_correct p then ok := false
      done;
      !ok)

let prop_undo_roundtrip =
  QCheck.Test.make ~name:"undo restores exact verdict and pair counts"
    ~count:200 arb_seed (fun seed ->
      let h = history_of_seed seed in
      let k = n_roots h in
      let cut = 1 + (seed mod k) in
      let m = Engine.create () in
      for i = 0 to cut - 1 do
        ignore (Engine.extend m (History.prefix_by_roots h i))
      done;
      let acc = Engine.accepted m in
      let pairs = Engine.obs_pairs m in
      let v = Engine.extend m (History.prefix_by_roots h cut) in
      Engine.undo m;
      let restored = Engine.accepted m = acc && Engine.obs_pairs m = pairs in
      let v' = Engine.extend m (History.prefix_by_roots h cut) in
      restored && accepted_verdict v = accepted_verdict v')

let qsuite name tests =
  (name, List.map (QCheck_alcotest.to_alcotest ~verbose:false) tests)

let suite =
  [
    ( "monitor",
      [
        Alcotest.test_case "prefix chain shape" `Quick test_prefix_chain_shape;
        Alcotest.test_case "full-prefix verdict" `Quick test_full_prefix_verdict;
        Alcotest.test_case "growth from empty prefix" `Quick
          test_monitor_from_empty;
        Alcotest.test_case "empty delta fast path" `Quick
          test_empty_delta_fastpath;
        Alcotest.test_case "undo restores state" `Quick test_undo_restores;
        Alcotest.test_case "undo depth is one" `Quick test_undo_depth;
        Alcotest.test_case "undo/re-extend fork-chain allocation" `Quick
          test_undo_refork_allocation_linear;
        Alcotest.test_case "non-extension rejected" `Quick
          test_non_extension_rejected;
        Alcotest.test_case "kernel: accepting open-transaction stream" `Quick
          test_kernel_accepting_stream;
        Alcotest.test_case "kernel: rejection inside the old block" `Quick
          test_kernel_rejecting_stream;
      ] );
    qsuite "monitor:props"
      [ prop_prefix_equivalence; prop_undo_roundtrip; prop_extend_delta_exact ];
  ]
