(* Tests for labels, conflict specifications, the history builder, seal-time
   order completion, and the Def. 3/4 validator. *)
open Repro_order
open Repro_model
module B = History.Builder

let lbl l = Fmt.str "%a" Label.pp l

let test_labels () =
  Alcotest.(check string) "read" "r(x)" (lbl (Label.read "x"));
  Alcotest.(check string) "custom" "transfer(a,b)" (lbl (Label.v ~args:[ "a"; "b" ] "transfer"));
  Alcotest.(check string) "no args" "commit" (lbl (Label.v "commit"));
  Alcotest.(check bool) "equal" true (Label.equal (Label.read "x") (Label.read "x"));
  Alcotest.(check bool) "item" true (Label.item (Label.write "y") = Some "y");
  Alcotest.(check bool) "no item" true (Label.item (Label.v "c") = None)

let eval spec labels a b =
  Conflict.eval spec ~get_label:(fun i -> List.nth labels i) a b

let test_conflict_rw () =
  let labels = [ Label.read "x"; Label.write "x"; Label.read "y"; Label.incr "x"; Label.incr "x" ] in
  let c = eval Conflict.Rw labels in
  Alcotest.(check bool) "r-w same item" true (c 0 1);
  Alcotest.(check bool) "symmetric" true (c 1 0);
  Alcotest.(check bool) "r-r" false (c 0 0);
  Alcotest.(check bool) "different items" false (c 1 2);
  Alcotest.(check bool) "inc-inc commute" false (c 3 4);
  Alcotest.(check bool) "inc-r conflict" true (c 0 3)

let test_conflict_table () =
  let labels =
    [ Label.v ~args:[ "a" ] "add"; Label.v ~args:[ "a" ] "get"; Label.v ~args:[ "b" ] "get";
      Label.v ~args:[ "a" ] "add" ]
  in
  let c = eval (Conflict.Table [ ("add", "get") ]) labels in
  Alcotest.(check bool) "add-get same arg" true (c 0 1);
  Alcotest.(check bool) "add-get other arg" false (c 0 2);
  Alcotest.(check bool) "add-add unlisted" false (c 0 3)

let test_conflict_explicit () =
  let labels = [ Label.v "a"; Label.v "b"; Label.v "c" ] in
  let c = eval (Conflict.Explicit [ (0, 1) ]) labels in
  Alcotest.(check bool) "listed" true (c 0 1);
  Alcotest.(check bool) "reverse" true (c 1 0);
  Alcotest.(check bool) "unlisted" false (c 0 2);
  Alcotest.(check bool) "never" false (eval Conflict.Never labels 0 1);
  Alcotest.(check bool) "always" true (eval Conflict.Always labels 0 1);
  Alcotest.(check bool) "always irreflexive" false (eval Conflict.Always labels 1 1)

(* A tiny two-root flat history used by several tests. *)
let flat_history ~log:order () =
  let b = B.create () in
  let s = B.schedule b ~conflict:Conflict.Rw "S" in
  let t1 = B.root b ~sched:s (Label.v "T1") in
  let t2 = B.root b ~sched:s (Label.v "T2") in
  let r1 = B.leaf b ~parent:t1 (Label.read "x") in
  let w1 = B.leaf b ~parent:t1 (Label.write "y") in
  let r2 = B.leaf b ~parent:t2 (Label.read "y") in
  let w2 = B.leaf b ~parent:t2 (Label.write "x") in
  B.log b ~sched:s (order (r1, w1, r2, w2));
  (B.seal b, (t1, t2), (r1, w1, r2, w2))

let test_builder_basics () =
  let h, (t1, t2), (r1, w1, r2, w2) = flat_history ~log:(fun (a, b, c, d) -> [ a; b; c; d ]) () in
  Alcotest.(check int) "nodes" 6 (History.n_nodes h);
  Alcotest.(check int) "schedules" 1 (History.n_schedules h);
  Alcotest.(check (list int)) "roots" [ t1; t2 ] (History.roots h);
  Alcotest.(check (list int)) "leaves" [ r1; w1; r2; w2 ] (History.leaves h);
  Alcotest.(check bool) "is_leaf" true (History.is_leaf h r1);
  Alcotest.(check bool) "root not leaf" false (History.is_leaf h t1);
  Alcotest.(check (list int)) "children" [ r1; w1 ] (History.children h t1);
  Alcotest.(check int) "parent_tx of leaf" t1 (History.parent_tx h r1);
  Alcotest.(check int) "parent_tx of root" t2 (History.parent_tx h t2);
  Alcotest.(check int) "order" 1 (History.order h);
  Alcotest.(check int) "level of leaf" 0 (History.level_of_node h r1);
  Alcotest.(check int) "level of root" 1 (History.level_of_node h t1)

let test_seal_minimal_weak_out () =
  let h, _, (r1, w1, r2, w2) = flat_history ~log:(fun (a, b, c, d) -> [ a; c; b; d ]) () in
  let s = History.schedule h 0 in
  (* log: r1 r2 w1 w2; conflicts: (w1,r2) on y ordered r2 < w1; (r1,w2) on x
     ordered r1 < w2.  Non-conflicting pairs are not ordered. *)
  Alcotest.(check bool) "conflict pair x" true (Rel.mem r1 w2 s.History.weak_out);
  Alcotest.(check bool) "conflict pair y" true (Rel.mem r2 w1 s.History.weak_out);
  Alcotest.(check bool) "no commuting pair" false (Rel.mem r1 r2 s.History.weak_out);
  Alcotest.(check bool) "no same-tx pair without intra" false (Rel.mem r1 w1 s.History.weak_out)

let test_seal_input_expansion () =
  (* A strong root input order expands to strong output pairs over all
     operations, which in turn appear in the weak output. *)
  let b = B.create () in
  let s = B.schedule b ~conflict:Conflict.Rw "S" in
  let t1 = B.root b ~sched:s (Label.v "T1") in
  let t2 = B.root b ~sched:s (Label.v "T2") in
  let w1 = B.leaf b ~parent:t1 (Label.write "x") in
  let r2 = B.leaf b ~parent:t2 (Label.read "q") in
  B.input_strong b ~a:t1 ~b:t2;
  B.log b ~sched:s [ w1; r2 ];
  let h = B.seal b in
  let sc = History.schedule h 0 in
  Alcotest.(check bool) "strong out" true (Rel.mem w1 r2 sc.History.strong_out);
  Alcotest.(check bool) "weak out contains strong" true (Rel.mem w1 r2 sc.History.weak_out);
  Alcotest.(check bool) "strong in recorded" true (Rel.mem t1 t2 sc.History.strong_in);
  Alcotest.(check bool) "weak in contains strong" true (Rel.mem t1 t2 sc.History.weak_in)

let test_seal_inheritance () =
  (* Two-level history: the top schedule's output order over two
     subtransactions of the same lower schedule must become the lower
     schedule's input order (Def. 4.7). *)
  let b = B.create () in
  let top = B.schedule b ~conflict:Conflict.Same_item "Top" in
  let bot = B.schedule b ~conflict:Conflict.Rw "Bot" in
  let t1 = B.root b ~sched:top (Label.v "T1") in
  let t2 = B.root b ~sched:top (Label.v "T2") in
  let a = B.tx b ~parent:t1 ~sched:bot (Label.v ~args:[ "k" ] "svc") in
  let c = B.tx b ~parent:t2 ~sched:bot (Label.v ~args:[ "k" ] "svc") in
  let la = B.leaf b ~parent:a (Label.write "x") in
  let lc = B.leaf b ~parent:c (Label.write "x") in
  B.log b ~sched:top [ a; c ];
  B.log b ~sched:bot [ la; lc ];
  let h = B.seal b in
  let bot_s = History.schedule h bot in
  Alcotest.(check bool) "input inherited" true (Rel.mem a c bot_s.History.weak_in);
  Alcotest.(check bool) "leaf order follows" true (Rel.mem la lc bot_s.History.weak_out);
  Alcotest.(check (list unit)) "valid" [] (List.map (fun _ -> ()) (Validate.check h))

let test_seal_rejects_recursion () =
  let b = B.create () in
  let s1 = B.schedule b "A" in
  let s2 = B.schedule b "B" in
  let t = B.root b ~sched:s1 (Label.v "T") in
  let u = B.tx b ~parent:t ~sched:s2 (Label.v "u") in
  let v = B.tx b ~parent:u ~sched:s1 (Label.v "v") in
  ignore (B.leaf b ~parent:v (Label.read "x"));
  Alcotest.check_raises "recursive invocation graph"
    (Invalid_argument "History.Builder.seal: recursive invocation graph") (fun () ->
      ignore (B.seal b))

let test_seal_rejects_self_invocation () =
  let b = B.create () in
  let s = B.schedule b "A" in
  let t = B.root b ~sched:s (Label.v "T") in
  ignore (B.tx b ~parent:t ~sched:s (Label.v "u"));
  Alcotest.check_raises "self invocation"
    (Invalid_argument "History.Builder.seal: schedule invokes itself") (fun () ->
      ignore (B.seal b))

let test_seal_rejects_bad_log () =
  let b = B.create () in
  let s = B.schedule b "S" in
  let t = B.root b ~sched:s (Label.v "T") in
  let l1 = B.leaf b ~parent:t (Label.read "x") in
  ignore l1;
  B.log b ~sched:s [];
  (* An empty log is "absent", fine; a log missing operations is not. *)
  ignore (B.seal b);
  let b = B.create () in
  let s = B.schedule b "S" in
  let t = B.root b ~sched:s (Label.v "T") in
  let l1 = B.leaf b ~parent:t (Label.read "x") in
  let l2 = B.leaf b ~parent:t (Label.read "y") in
  ignore l2;
  B.log b ~sched:s [ l1 ];
  Alcotest.check_raises "incomplete log"
    (Invalid_argument
       "History.Builder.seal: log of schedule S is not a permutation of its operations")
    (fun () -> ignore (B.seal b))

let test_validate_accepts_generated () =
  (* Every generated history across all shapes must validate. *)
  let open Repro_workload in
  for i = 0 to 30 do
    let rng = Prng.create ~seed:(1000 + i) in
    let check h = Alcotest.(check bool) "valid" true (Validate.check h = []) in
    check (Gen.flat rng ~roots:3);
    check (Gen.stack rng ~levels:3 ~roots:2);
    check (Gen.fork rng ~branches:3 ~roots:3);
    check (Gen.join rng ~branches:2 ~roots:3);
    check (Gen.general rng ~schedules:4 ~roots:3)
  done

let test_validate_unordered_conflict () =
  (* Two conflicting leaves with no log and no explicit order: cond 1c. *)
  let b = B.create () in
  let s = B.schedule b ~conflict:Conflict.Rw "S" in
  let t1 = B.root b ~sched:s (Label.v "T1") in
  let t2 = B.root b ~sched:s (Label.v "T2") in
  ignore (B.leaf b ~parent:t1 (Label.write "x"));
  ignore (B.leaf b ~parent:t2 (Label.write "x"));
  let h = B.seal b in
  match Validate.check h with
  | [ Validate.Unordered_conflict _ ] -> ()
  | errs -> Alcotest.failf "expected one Unordered_conflict, got %d errors" (List.length errs)

let test_validate_log_contradiction () =
  (* Claim an output order opposite to the log on a conflicting pair. *)
  let b = B.create () in
  let s = B.schedule b ~conflict:Conflict.Rw "S" in
  let t1 = B.root b ~sched:s (Label.v "T1") in
  let t2 = B.root b ~sched:s (Label.v "T2") in
  let w1 = B.leaf b ~parent:t1 (Label.write "x") in
  let w2 = B.leaf b ~parent:t2 (Label.write "x") in
  B.weak_out b ~a:w2 ~b:w1;
  B.log b ~sched:s [ w1; w2 ];
  let h = B.seal b in
  let errs = Validate.check h in
  Alcotest.(check bool) "log contradiction reported" true
    (List.exists (function Validate.Log_contradicts_output _ -> true | _ -> false) errs)

let test_validate_log_contradicts_strong () =
  (* A strong root input order demands all of T1's operations before all of
     T2's, but the log interleaves two commuting operations the other way;
     the weak check cannot see it (they do not conflict), the strong check
     must. *)
  let b = B.create () in
  let s = B.schedule b ~conflict:Conflict.Rw "S" in
  let t1 = B.root b ~sched:s (Label.v "T1") in
  let t2 = B.root b ~sched:s (Label.v "T2") in
  let w1 = B.leaf b ~parent:t1 (Label.write "x") in
  let r2 = B.leaf b ~parent:t2 (Label.read "q") in
  B.input_strong b ~a:t1 ~b:t2;
  B.log b ~sched:s [ r2; w1 ];
  let h = B.seal b in
  let errs = Validate.check h in
  Alcotest.(check bool) "strong contradiction reported" true
    (List.exists (function Validate.Log_contradicts_strong _ -> true | _ -> false) errs)

let test_validate_cyclic_output () =
  (* Explicitly claim both directions for a conflicting pair: the closed
     weak output order becomes cyclic. *)
  let b = B.create () in
  let s = B.schedule b ~conflict:Conflict.Rw "S" in
  let t1 = B.root b ~sched:s (Label.v "T1") in
  let t2 = B.root b ~sched:s (Label.v "T2") in
  let w1 = B.leaf b ~parent:t1 (Label.write "x") in
  let w2 = B.leaf b ~parent:t2 (Label.write "x") in
  B.weak_out b ~a:w1 ~b:w2;
  B.weak_out b ~a:w2 ~b:w1;
  let h = B.seal b in
  let errs = Validate.check h in
  Alcotest.(check bool) "cycle reported" true
    (List.exists (function Validate.Cyclic_order _ -> true | _ -> false) errs)

let test_validate_input_order_violated () =
  (* Client orders T1 before T2, but the schedule claims the conflicting
     operations the other way round (explicit outputs suppress the log
     derivation, and the input-derived pair creates the contradiction). *)
  let b = B.create () in
  let s = B.schedule b ~conflict:Conflict.Rw "S" in
  let t1 = B.root b ~sched:s (Label.v "T1") in
  let t2 = B.root b ~sched:s (Label.v "T2") in
  let w1 = B.leaf b ~parent:t1 (Label.write "x") in
  let w2 = B.leaf b ~parent:t2 (Label.write "x") in
  B.input_weak b ~a:t1 ~b:t2;
  B.weak_out b ~a:w2 ~b:w1;
  let h = B.seal b in
  let errs = Validate.check h in
  Alcotest.(check bool) "some violation reported" true (errs <> []);
  Alcotest.(check bool) "as a cyclic output (auto-completed) " true
    (List.exists (function Validate.Cyclic_order _ -> true | _ -> false) errs)

(* ------------------------------------------------------------------ *)
(* What seal establishes by construction                               *)
(* ------------------------------------------------------------------ *)

(* The five conditions of Defs. 3–4 that [Builder.seal] and
   [History.extend] establish by order completion, so [Validate] does
   not re-check them: strong ⊆ weak (input and output), output orders
   extend intra orders, strong input orders expand to strong output
   orders, conflicting operations follow the weak input order, and
   clients' output orders are inherited as input orders (Def. 4.7).
   Answers the first violation found. *)
let completion_violation h =
  let found = ref None in
  let fail fmt = Fmt.kstr (fun m -> if !found = None then found := Some m) fmt in
  let contained what r r' =
    Rel.iter (fun a b -> if not (Rel.mem a b r') then fail "%s: %d < %d missing" what a b) r
  in
  let over_ops t t' f =
    List.iter (fun o -> List.iter (f o) (History.children h t')) (History.children h t)
  in
  List.iter
    (fun (s : History.schedule) ->
      let name what = Fmt.str "schedule %s: %s" s.History.sname what in
      contained (name "strong in weak input") s.History.strong_in s.History.weak_in;
      contained (name "strong in weak output") s.History.strong_out s.History.weak_out;
      Ids.Int_set.iter
        (fun t ->
          let n = History.node h t in
          contained (name "weak intra in output") n.History.intra_weak s.History.weak_out;
          contained (name "strong intra in output") n.History.intra_strong s.History.strong_out)
        s.History.transactions;
      Rel.iter
        (fun t t' ->
          over_ops t t' (fun o o' ->
              if not (Rel.mem o o' s.History.strong_out) then
                fail "%s %d < %d" (name "strong input not expanded to") o o'))
        s.History.strong_in;
      Rel.iter
        (fun t t' ->
          over_ops t t' (fun o o' ->
              if History.conflicts h s.History.sid o o' && not (Rel.mem o o' s.History.weak_out)
              then fail "%s %d < %d" (name "input order not followed on") o o'))
        s.History.weak_in;
      Rel.iter
        (fun o o' ->
          match (History.sched_of_tx h o, History.sched_of_tx h o') with
          | Some c, Some c' when c = c' ->
            if not (Rel.mem o o' (History.schedule h c).History.weak_in) then
              fail "%s %d < %d" (name "output pair not inherited:") o o'
          | _ -> ())
        s.History.weak_out)
    (History.schedules h);
  !found

(* Random builder input: one to three schedules, each transaction's
   operations leaves or subtransactions of later schedules (so the
   invocation graph is acyclic), explicit weak and strong output pairs,
   intra pairs and root input pairs drawn at random (cycles included),
   and now and then a schedule's log. *)
let random_sealed seed =
  let open Repro_workload in
  let rng = Prng.create ~seed in
  let b = B.create () in
  let k = 1 + Prng.int rng 3 in
  let specs =
    [ Conflict.Rw; Conflict.Never; Conflict.Always; Conflict.Same_item; Conflict.Adt Adt.Counter ]
  in
  let scheds =
    Array.init k (fun i -> B.schedule b ~conflict:(Prng.pick rng specs) (Fmt.str "S%d" i))
  in
  let labels =
    [ Label.read "x"; Label.write "x"; Label.read "y"; Label.write "y"; Label.v ~args:[ "x" ] "inc";
      Label.v ~args:[ "x" ] "get" ]
  in
  let ops = Array.make k [] and roots = Array.make k [] in
  let pairs l f =
    let a = Array.of_list l in
    if Array.length a > 1 then
      for _ = 1 to Prng.int rng (2 * Array.length a) do
        let x = Prng.pick_arr rng a and y = Prng.pick_arr rng a in
        if x <> y then f x y
      done
  in
  let rec grow parent s =
    let kids =
      List.init (1 + Prng.int rng 3) (fun _ ->
          let label = Prng.pick rng labels in
          if s + 1 < k && Prng.chance rng 0.5 then begin
            let s' = s + 1 + Prng.int rng (k - s - 1) in
            let t = B.tx b ~parent ~sched:scheds.(s') label in
            grow t s';
            t
          end
          else B.leaf b ~parent label)
    in
    ops.(s) <- kids @ ops.(s);
    pairs kids (fun a b' ->
        if Prng.bool rng then B.intra_weak b ~a ~b:b' else B.intra_strong b ~a ~b:b')
  in
  for _ = 1 to 2 + Prng.int rng 3 do
    let s = Prng.int rng k in
    let r = B.root b ~sched:scheds.(s) (Label.v "T") in
    roots.(s) <- r :: roots.(s);
    grow r s
  done;
  for s = 0 to k - 1 do
    if Prng.chance rng 0.3 then B.log b ~sched:scheds.(s) (Prng.permutation rng ops.(s))
    else
      pairs ops.(s) (fun a b' ->
          if Prng.chance rng 0.3 then B.strong_out b ~a ~b:b' else B.weak_out b ~a ~b:b');
    pairs roots.(s) (fun a b' ->
        if Prng.chance rng 0.3 then B.input_strong b ~a ~b:b' else B.input_weak b ~a ~b:b')
  done;
  B.seal b

(* Seeds 0 .. shapes × specs - 1 first, so each run meets every [Gen]
   shape under every streamable spec; random seeds follow. *)
let completion_seeds =
  let sweep = Test_session.n_shapes * List.length Test_session.specs and next = ref 0 in
  fun st ->
    if !next < sweep then begin
      incr next;
      !next - 1
    end
    else QCheck.Gen.int_bound 1_000_000 st

(* Every sealed history satisfies the five conditions: a random builder's,
   a [Gen] history's, and each history along a [Syntax.Session] chain of
   the latter's chunks (sealed delta by delta through [History.extend]). *)
let prop_seal_completes =
  QCheck.Test.make ~count:400 ~name:"seal establishes what Validate no longer checks"
    (QCheck.make ~print:string_of_int completion_seeds)
    (fun seed ->
      let rng = Repro_workload.Prng.create ~seed in
      let shape = seed mod Test_session.n_shapes in
      let conflict =
        List.nth Test_session.specs
          (seed / Test_session.n_shapes mod List.length Test_session.specs)
      in
      let h = Test_session.history ~shape ~conflict rng in
      let chunks =
        if Repro_workload.Prng.bool rng then Test_session.stream_chunks h
        else Test_session.fine_chunks rng h
      in
      (* The chain up to the first chunk the session refuses: a refusal
         seals nothing. *)
      let rec chain s = function
        | [] -> []
        | chunk :: rest -> (
          match Test_session.Session.feed s chunk with
          | exception Invalid_argument _ -> []
          | s -> Test_session.Session.history s :: chain s rest)
      in
      let chain = chain (Test_session.Session.empty ()) chunks in
      match
        List.find_map
          (fun (what, h) -> Option.map (fun m -> (what, m)) (completion_violation h))
          (("builder", random_sealed seed) :: ("gen", h)
          :: List.map (fun h -> ("session", h)) chain)
      with
      | None -> true
      | Some (what, m) -> QCheck.Test.fail_reportf "seed %d, %s history: %s" seed what m)

let test_builder_misuse () =
  let b = B.create () in
  let s = B.schedule b ~conflict:Conflict.Rw "S" in
  let t1 = B.root b ~sched:s (Label.v "T1") in
  let l = B.leaf b ~parent:t1 (Label.read "x") in
  Alcotest.check_raises "leaf cannot parent"
    (Invalid_argument "History.Builder.leaf: parent is a leaf") (fun () ->
      ignore (B.leaf b ~parent:l (Label.read "y")));
  Alcotest.check_raises "self order"
    (Invalid_argument "History.Builder.weak_out: 1 ordered against itself") (fun () ->
      B.weak_out b ~a:l ~b:l);
  let t2 = B.root b ~sched:s (Label.v "T2") in
  let m = B.leaf b ~parent:t2 (Label.read "z") in
  Alcotest.check_raises "intra requires siblings"
    (Invalid_argument "History.Builder.intra_weak: 1 and 3 are not siblings") (fun () ->
      B.intra_weak b ~a:l ~b:m);
  Alcotest.check_raises "input requires roots"
    (Invalid_argument "History.Builder.input_weak: 1 and 3 must be roots") (fun () ->
      B.input_weak b ~a:l ~b:m)

let test_descendants () =
  let b = B.create () in
  let top = B.schedule b ~conflict:Conflict.Same_item "Top" in
  let bot = B.schedule b ~conflict:Conflict.Rw "Bot" in
  let t = B.root b ~sched:top (Label.v "T") in
  let u = B.tx b ~parent:t ~sched:bot (Label.v ~args:[ "k" ] "svc") in
  let l = B.leaf b ~parent:u (Label.read "x") in
  B.log b ~sched:bot [ l ];
  B.log b ~sched:top [ u ];
  let h = B.seal b in
  let open Ids in
  Alcotest.(check bool) "descendants" true
    (Int_set.equal (History.descendants h t) (Int_set.of_list [ u; l ]));
  Alcotest.(check bool) "composite tx" true
    (Int_set.equal (History.composite_transaction h t) (Int_set.of_list [ t; u; l ]));
  Alcotest.(check bool) "ig edge" true (Rel.mem top bot (History.invocation_graph h));
  Alcotest.(check int) "top level" 2 (History.level h top);
  Alcotest.(check int) "bot level" 1 (History.level h bot)

let test_clone_roundtrip () =
  let open Repro_workload in
  for i = 0 to 10 do
    let rng = Prng.create ~seed:(77 + i) in
    let h = Gen.general rng ~schedules:3 ~roots:3 in
    let h' = Clone.copy h in
    Alcotest.(check int) "nodes preserved" (History.n_nodes h) (History.n_nodes h');
    Alcotest.(check bool) "same verdict" (Repro_core.Compc.is_correct h)
      (Repro_core.Compc.is_correct h');
    List.iter
      (fun (s : History.schedule) ->
        let s' = History.schedule h' s.History.sid in
        Alcotest.(check bool)
          (Fmt.str "weak_out of %s preserved" s.History.sname)
          true
          (Rel.equal s.History.weak_out s'.History.weak_out))
      (History.schedules h)
  done

let test_shapes () =
  let open Repro_workload in
  let rng = Prng.create ~seed:5 in
  let is_shape f h = f (Repro_criteria.Shapes.classify h) in
  Alcotest.(check bool) "flat" true
    (is_shape (function Repro_criteria.Shapes.Stack [ _ ] -> true | _ -> false)
       (Gen.flat rng ~roots:3));
  Alcotest.(check bool) "stack" true
    (is_shape
       (function Repro_criteria.Shapes.Stack l -> List.length l = 3 | _ -> false)
       (Gen.stack rng ~levels:3 ~roots:2));
  Alcotest.(check bool) "fork" true
    (is_shape
       (function Repro_criteria.Shapes.Fork { branches; _ } -> List.length branches = 3 | _ -> false)
       (Gen.fork rng ~branches:3 ~roots:3));
  Alcotest.(check bool) "join" true
    (is_shape
       (function Repro_criteria.Shapes.Join { branches; _ } -> List.length branches = 2 | _ -> false)
       (Gen.join rng ~branches:2 ~roots:3))

let suite =
  [
    ( "model",
      [
        Alcotest.test_case "labels" `Quick test_labels;
        Alcotest.test_case "conflict: rw" `Quick test_conflict_rw;
        Alcotest.test_case "conflict: table" `Quick test_conflict_table;
        Alcotest.test_case "conflict: explicit/never/always" `Quick test_conflict_explicit;
        Alcotest.test_case "builder basics" `Quick test_builder_basics;
        Alcotest.test_case "seal derives minimal weak output" `Quick test_seal_minimal_weak_out;
        Alcotest.test_case "seal expands strong inputs" `Quick test_seal_input_expansion;
        Alcotest.test_case "seal inherits input orders" `Quick test_seal_inheritance;
        Alcotest.test_case "seal rejects recursion" `Quick test_seal_rejects_recursion;
        Alcotest.test_case "seal rejects self-invocation" `Quick test_seal_rejects_self_invocation;
        Alcotest.test_case "seal rejects bad logs" `Quick test_seal_rejects_bad_log;
        Alcotest.test_case "validator accepts generated histories" `Quick test_validate_accepts_generated;
        Alcotest.test_case "validator: unordered conflict" `Quick test_validate_unordered_conflict;
        Alcotest.test_case "validator: log contradiction" `Quick test_validate_log_contradiction;
        Alcotest.test_case "validator: cyclic explicit output" `Quick test_validate_cyclic_output;
        Alcotest.test_case "validator: log contradicts strong order" `Quick
          test_validate_log_contradicts_strong;
        Alcotest.test_case "validator: input order violated" `Quick
          test_validate_input_order_violated;
        Alcotest.test_case "builder misuse raises" `Quick test_builder_misuse;
        Alcotest.test_case "descendants and structure" `Quick test_descendants;
        Alcotest.test_case "clone round-trips" `Quick test_clone_roundtrip;
        Alcotest.test_case "shape recognizers" `Quick test_shapes;
      ] );
    ("model:props", [ QCheck_alcotest.to_alcotest prop_seal_completes ]);
  ]
