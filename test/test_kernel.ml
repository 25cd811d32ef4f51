(* Equivalence tests for the dense performance kernel: Bitrel against the
   persistent Rel oracles, its growable window against a boolean matrix,
   the memoized conflict cache against the direct evaluation path, the
   domain pool against List.map, and metrics merging. *)
open Repro_order
open Repro_model
open Ids
module Pool = Repro_par.Pool
module Metrics = Repro_obs.Metrics

(* ------------------------------------------------------------------ *)
(* Generators                                                          *)
(* ------------------------------------------------------------------ *)

(* Random relations over universes up to 150 nodes — several bit words per
   row — with self-loops and cycles allowed, biased towards both sparse and
   dense pair counts.  The empty relation appears naturally. *)
let gen_rel =
  let open QCheck.Gen in
  int_range 1 150 >>= fun n ->
  int_range 0 (3 * n) >>= fun pairs ->
  list_size (return pairs) (map2 (fun a b -> (a, b)) (int_bound (n - 1)) (int_bound (n - 1)))
  >|= Rel.of_list

let arb_rel = QCheck.make ~print:(Fmt.str "%a" Rel.pp) gen_rel

let bitrel_of r =
  let b = Bitrel.create (Rel.nodes r) in
  Rel.iter (fun a b' -> Bitrel.add b a b') r;
  b

let pairs_of_rel r = List.rev (Rel.fold (fun a b acc -> (a, b) :: acc) r [])

(* ------------------------------------------------------------------ *)
(* Bitrel = Rel properties                                             *)
(* ------------------------------------------------------------------ *)

let prop_roundtrip =
  QCheck.Test.make ~name:"bitrel: to_list round-trips Rel" ~count:500 arb_rel
    (fun r ->
      let b = bitrel_of r in
      Bitrel.to_list b = pairs_of_rel r
      && Bitrel.cardinal b = Rel.cardinal r
      && Rel.equal (Rel.of_bitrel b) r)

let prop_mem =
  QCheck.Test.make ~name:"bitrel: mem agrees with Rel.mem" ~count:500 arb_rel
    (fun r ->
      let b = bitrel_of r in
      Rel.fold (fun a b' ok -> ok && Bitrel.mem b a b') r true
      && (not (Bitrel.mem b 9999 0))
      && Bitrel.mem b (-1) (-1) = false)

let prop_closure_reachability =
  QCheck.Test.make ~name:"bitrel: closure = reachability" ~count:500 arb_rel
    (fun r ->
      let c = bitrel_of r in
      Bitrel.close c;
      let succs_of a =
        let acc = ref Int_set.empty in
        Bitrel.iter (fun x y -> if x = a then acc := Int_set.add y !acc) c;
        !acc
      in
      Int_set.for_all
        (fun a -> Int_set.equal (succs_of a) (Rel.reachable r a))
        (Rel.nodes r))

let prop_cycle_agreement =
  QCheck.Test.make ~name:"bitrel: find_cycle agrees and is real" ~count:500
    arb_rel (fun r ->
      let b = bitrel_of r in
      match Bitrel.find_cycle b with
      | None -> Rel.find_cycle r = None
      | Some [] -> false
      | Some (first :: _ as cycle) ->
        Rel.find_cycle r <> None
        &&
        let rec edges = function
          | [] -> true
          | [ last ] -> Rel.mem last first r
          | a :: (b' :: _ as rest) -> Rel.mem a b' r && edges rest
        in
        edges cycle)

let prop_topo_exact =
  QCheck.Test.make ~name:"bitrel: topo_sort = Rel.topo_sort" ~count:500 arb_rel
    (fun r ->
      Bitrel.topo_sort (bitrel_of r) = Rel.topo_sort ~nodes:(Rel.nodes r) r)

let prop_inverse =
  QCheck.Test.make ~name:"rel: inverse flips pairs and preds" ~count:500 arb_rel
    (fun r ->
      let i = Rel.inverse r in
      Rel.cardinal i = Rel.cardinal r
      && Rel.fold (fun a b ok -> ok && Rel.mem b a i) r true
      && Int_set.for_all
           (fun n -> Int_set.equal (Rel.succs i n) (Rel.preds r n))
           (Rel.nodes r))

let test_of_ids () =
  let b = Bitrel.of_ids [| 3; 7; 100 |] in
  Bitrel.add b 3 100;
  Alcotest.(check bool) "mem" true (Bitrel.mem b 3 100);
  Alcotest.(check bool) "outside" false (Bitrel.mem b 4 100);
  Alcotest.(check_raises) "unsorted" (Invalid_argument "Bitrel.of_ids: ids must be strictly increasing")
    (fun () -> ignore (Bitrel.of_ids [| 3; 3 |]));
  Alcotest.(check_raises) "add outside"
    (Invalid_argument "Bitrel.add: node 4 outside the universe") (fun () ->
      Bitrel.add b 4 7);
  let empty = Bitrel.create Int_set.empty in
  Alcotest.(check bool) "empty topo" true (Bitrel.topo_sort empty = Some []);
  Bitrel.close empty;
  Alcotest.(check int) "empty closure" 0 (Bitrel.cardinal empty)

let test_sparse_universe () =
  (* Ids far apart fall back to the hashtable index; semantics unchanged. *)
  let b = Bitrel.of_ids [| 0; 5_000_000 |] in
  Bitrel.add b 0 5_000_000;
  Alcotest.(check bool) "mem far" true (Bitrel.mem b 0 5_000_000);
  Alcotest.(check int) "cardinal" 1 (Bitrel.cardinal b);
  Alcotest.(check bool) "topo" true
    (Bitrel.topo_sort b = Some [ 0; 5_000_000 ])

(* ------------------------------------------------------------------ *)
(* The growable window of [make] relations                             *)
(* ------------------------------------------------------------------ *)

let test_growth () =
  let a = Bitrel.make ~rows:2 ~cols:10 in
  Bitrel.add a 0 3;
  Bitrel.add a 1 9;
  Bitrel.ensure a ~rows:100 ~cols:500;
  Alcotest.(check bool) "bit (0,3) survives growth" true (Bitrel.mem a 0 3);
  Alcotest.(check bool) "bit (1,9) survives growth" true (Bitrel.mem a 1 9);
  Alcotest.(check bool) "fresh space is zero" false (Bitrel.mem a 50 400);
  Bitrel.add a 99 499;
  Alcotest.(check bool) "far corner settable" true (Bitrel.mem a 99 499);
  Alcotest.(check int) "cardinal" 3 (Bitrel.cardinal a);
  Bitrel.reset a ~rows:4 ~cols:4;
  Alcotest.(check int) "reset clears" 0 (Bitrel.cardinal a);
  Bitrel.add a 3 3;
  Alcotest.check_raises "reset resizes rows"
    (Invalid_argument "Bitrel.add: node 4 outside the universe") (fun () ->
      Bitrel.add a 4 0)

let test_row_iter () =
  let w = Sys.int_size in
  let cols = [ 0; 7; w - 1; w; (2 * w) - 1; 2 * w; (3 * w) - 1 ] in
  let a = Bitrel.make ~rows:1 ~cols:(3 * w) in
  List.iter (Bitrel.add a 0) cols;
  let collected = ref [] in
  Bitrel.row_iter a 0 (fun j -> collected := j :: !collected);
  Alcotest.(check (list int)) "row_iter ascending across words" cols
    (List.rev !collected);
  Alcotest.(check bool) "mem out of window" false (Bitrel.mem a 5 5)

let prop_scc_order =
  QCheck.Test.make ~name:"bitrel: scc numbering is reverse topological"
    ~count:600 arb_rel (fun r ->
      let n = Rel.fold (fun a b m -> max m (max a b + 1)) r 0 in
      let d = Bitrel.make ~rows:n ~cols:n in
      Rel.iter (Bitrel.add d) r;
      let comp_of, ncomps = Bitrel.scc_condensation d in
      Rel.fold (fun x y ok -> ok && comp_of.(x) >= comp_of.(y)) r true
      && Array.for_all (fun c -> c >= 0 && c < ncomps) comp_of)

(* Random window operations with column counts on either side of word
   boundaries, replayed on a boolean matrix: every bit, row scan and pair
   scan must agree after each step, and [shrink] must leave at most 4x
   the words its window needs. *)
type window_op =
  | Set of int * int (* coordinates taken modulo the window *)
  | Ensure of int * int
  | Reset of int * int
  | Shrink of int * int

let arb_window_ops =
  let open QCheck.Gen in
  let w = Sys.int_size in
  let dims =
    pair (int_bound 9)
      (oneofl [ 0; 1; 5; w - 1; w; w + 1; (2 * w) - 1; 2 * w; (2 * w) + 1 ])
  in
  let op =
    frequency
      [
        (6, map2 (fun i j -> Set (i, j)) nat nat);
        (2, map (fun (r, c) -> Ensure (r, c)) dims);
        (1, map (fun (r, c) -> Reset (r, c)) dims);
        (1, map (fun (r, c) -> Shrink (r, c)) dims);
      ]
  in
  let pp ppf = function
    | Set (i, j) -> Fmt.pf ppf "set %d %d" i j
    | Ensure (r, c) -> Fmt.pf ppf "ensure %dx%d" r c
    | Reset (r, c) -> Fmt.pf ppf "reset %dx%d" r c
    | Shrink (r, c) -> Fmt.pf ppf "shrink %dx%d" r c
  in
  QCheck.make
    ~print:(Fmt.str "[%a]" Fmt.(list ~sep:(any "; ") pp))
    (list_size (int_range 1 40) op)

let prop_window_ops =
  QCheck.Test.make ~name:"bitrel: window ops = bool matrix" ~count:500
    arb_window_ops (fun ops ->
      let t = Bitrel.make ~rows:0 ~cols:0 in
      let rows = ref 0 and cols = ref 0 and model = ref [||] in
      let resize r c ~keep =
        let old = !model and oc = !cols in
        model :=
          Array.init r (fun i ->
              Array.init c (fun j ->
                  keep && i < Array.length old && j < oc && old.(i).(j)));
        rows := r;
        cols := c
      in
      let agrees () =
        let pairs = ref [] and ok = ref true in
        for i = 0 to !rows do
          for j = 0 to !cols do
            let want = i < !rows && j < !cols && !model.(i).(j) in
            if want then pairs := (i, j) :: !pairs;
            if Bitrel.mem t i j <> want then ok := false
          done
        done;
        let pairs = List.rev !pairs in
        for i = 0 to !rows - 1 do
          let seen = ref [] in
          Bitrel.row_iter t i (fun j -> seen := (i, j) :: !seen);
          if List.rev !seen <> List.filter (fun (a, _) -> a = i) pairs then
            ok := false
        done;
        let seen = ref [] in
        Bitrel.iter (fun a b -> seen := (a, b) :: !seen) t;
        !ok && List.rev !seen = pairs
      in
      List.for_all
        (fun op ->
          (match op with
          | Set (i, j) ->
            if !rows > 0 && !cols > 0 then begin
              let i = i mod !rows and j = j mod !cols in
              Bitrel.add t i j;
              !model.(i).(j) <- true
            end
          | Ensure (r, c) ->
            Bitrel.ensure t ~rows:r ~cols:c;
            resize (max r !rows) (max c !cols) ~keep:true
          | Reset (r, c) ->
            Bitrel.reset t ~rows:r ~cols:c;
            resize r c ~keep:false
          | Shrink (r, c) ->
            Bitrel.shrink t ~rows:r ~cols:c;
            resize r c ~keep:false);
          let released =
            match op with
            | Shrink (r, c) ->
              let words = (c + Sys.int_size - 1) / Sys.int_size in
              Bitrel.resident_words t <= 4 * max 1 words * max 1 r
            | Set _ | Ensure _ | Reset _ -> true
          in
          released && agrees ())
        ops)

(* ------------------------------------------------------------------ *)
(* Memoized conflicts = uncached conflicts                             *)
(* ------------------------------------------------------------------ *)

let prop_conflict_cache =
  QCheck.Test.make ~name:"history: memoized conflicts = uncached" ~count:500
    QCheck.(make Gen.(int_bound 1_000_000))
    (fun seed ->
      let open Repro_workload in
      let rng = Prng.create ~seed in
      let h =
        match seed mod 3 with
        | 0 -> Gen.stack rng ~levels:2 ~roots:2
        | 1 -> Gen.general rng ~schedules:3 ~roots:2
        | _ -> Gen.flat rng ~roots:4
      in
      List.for_all
        (fun (s : History.schedule) ->
          let ops = History.ops_of_schedule h s.History.sid in
          List.for_all
            (fun a ->
              List.for_all
                (fun b ->
                  History.conflicts h s.History.sid a b
                  = History.conflicts_uncached h s.History.sid a b
                  && History.conflicts h s.History.sid b a
                     = History.conflicts_uncached h s.History.sid b a)
                ops)
            ops)
        (History.schedules h))

(* ------------------------------------------------------------------ *)
(* Domain pool                                                         *)
(* ------------------------------------------------------------------ *)

let items = List.init 100 Fun.id

let test_parmap_order () =
  let f x = (x * x) + 1 in
  List.iter
    (fun jobs ->
      Alcotest.(check (list int))
        (Fmt.str "jobs=%d" jobs)
        (List.map f items)
        (Pool.parmap ~jobs f items))
    [ 1; 2; 4; 8 ];
  Alcotest.(check (list int)) "empty" [] (Pool.parmap ~jobs:4 (fun x -> x) []);
  Alcotest.(check (list int)) "singleton" [ 7 ] (Pool.parmap ~jobs:4 (fun x -> x) [ 7 ])

let test_parmap_exception () =
  Alcotest.check_raises "first failure re-raised" (Failure "item 3") (fun () ->
      ignore
        (Pool.parmap ~jobs:4
           (fun x -> if x >= 3 then failwith (Fmt.str "item %d" x) else x)
           items))

let test_parmap_with_metrics () =
  let run jobs =
    let metrics = Metrics.create () in
    let r =
      Pool.parmap_with ~jobs ~metrics
        (fun ~metrics x ->
          Metrics.incr metrics "pool.items";
          Metrics.observe metrics "pool.value" (float_of_int x);
          x)
        items
    in
    Alcotest.(check (list int)) (Fmt.str "results jobs=%d" jobs) items r;
    Repro_obs.Json.to_string (Metrics.to_json metrics)
  in
  let sequential = run 1 in
  Alcotest.(check string) "metrics identical at jobs=4" sequential (run 4);
  (* Disabled registry: workers get the null registry, nothing recorded.
     The workers only report what they saw; checking happens after the
     join, because Alcotest's formatter is not domain-safe. *)
  let r =
    Pool.parmap_with ~jobs:2 ~metrics:Metrics.null
      (fun ~metrics x -> (x, Metrics.enabled metrics))
      [ 1; 2; 3 ]
  in
  Alcotest.(check (list int)) "null results" [ 1; 2; 3 ] (List.map fst r);
  Alcotest.(check (list bool)) "null passed" [ false; false; false ]
    (List.map snd r)

(* ------------------------------------------------------------------ *)
(* Metrics.merge                                                       *)
(* ------------------------------------------------------------------ *)

let test_metrics_merge () =
  let a = Metrics.create () and b = Metrics.create () in
  Metrics.incr a "c" ~by:2;
  Metrics.incr b "c" ~by:3;
  Metrics.incr b "only_b";
  Metrics.set a "g" 1.0;
  Metrics.set b "g" 2.0;
  Metrics.observe a "h" 0.5;
  Metrics.observe b "h" 2.5;
  Metrics.observe b "h" 0.25;
  Metrics.merge ~into:a b;
  Alcotest.(check int) "counter adds" 5 (Metrics.counter_value a "c");
  Alcotest.(check int) "new counter copied" 1 (Metrics.counter_value a "only_b");
  Alcotest.(check (option (float 1e-9))) "gauge overwritten" (Some 2.0)
    (Metrics.gauge_value a "g");
  (match Metrics.summary a "h" with
  | None -> Alcotest.fail "merged histogram missing"
  | Some s ->
    Alcotest.(check int) "histogram count" 3 s.Metrics.count;
    Alcotest.(check (float 1e-9)) "histogram sum" 3.25 s.Metrics.sum;
    Alcotest.(check (float 1e-9)) "histogram min" 0.25 s.Metrics.min;
    Alcotest.(check (float 1e-9)) "histogram max" 2.5 s.Metrics.max);
  (* Incompatible bucket bounds are refused. *)
  let x = Metrics.create () and y = Metrics.create () in
  Metrics.observe x ~buckets:[| 1.0; 2.0 |] "h" 0.5;
  Metrics.observe y ~buckets:[| 1.0; 3.0 |] "h" 0.5;
  Alcotest.check_raises "incompatible buckets"
    (Invalid_argument "Metrics.merge: incompatible buckets for h") (fun () ->
      Metrics.merge ~into:x y);
  (* Merging into the disabled registry is a no-op. *)
  Metrics.merge ~into:Metrics.null a;
  Alcotest.(check int) "null untouched" 0 (Metrics.counter_value Metrics.null "c")

let qsuite name tests =
  (name, List.map (QCheck_alcotest.to_alcotest ~verbose:false) tests)

let suite =
  [
    ( "kernel",
      [
        Alcotest.test_case "bitrel of_ids and bounds" `Quick test_of_ids;
        Alcotest.test_case "bitrel sparse universe" `Quick test_sparse_universe;
        Alcotest.test_case "bitrel growth" `Quick test_growth;
        Alcotest.test_case "bitrel row_iter across words" `Quick test_row_iter;
        Alcotest.test_case "pool parmap order" `Quick test_parmap_order;
        Alcotest.test_case "pool exception" `Quick test_parmap_exception;
        Alcotest.test_case "pool metrics merge determinism" `Quick
          test_parmap_with_metrics;
        Alcotest.test_case "metrics merge" `Quick test_metrics_merge;
      ] );
    qsuite "kernel:props"
      [
        prop_roundtrip;
        prop_mem;
        prop_closure_reachability;
        prop_cycle_agreement;
        prop_topo_exact;
        prop_scc_order;
        prop_window_ops;
        prop_inverse;
        prop_conflict_cache;
      ];
  ]
