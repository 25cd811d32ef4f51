(* The incremental order kernel against the batch oracles: Increl's
   maintained topological order and component structure against
   Bitrel's Kahn sort and Tarjan condensation. *)
open Repro_order
open Ids

(* ------------------------------------------------------------------ *)
(* Generators                                                          *)
(* ------------------------------------------------------------------ *)

(* An edge-insertion sequence over a dense universe: the order of
   insertion matters for Increl (each edge triggers its own affected-region
   pass), so the generator produces the sequence, not the set. *)
let gen_edges =
  let open QCheck.Gen in
  int_range 1 40 >>= fun n ->
  int_range 0 (3 * n) >>= fun m ->
  list_size (return m)
    (map2 (fun a b -> (a, b)) (int_bound (n - 1)) (int_bound (n - 1)))
  >|= fun edges -> (n, edges)

let arb_edges =
  QCheck.make
    ~print:(fun (n, es) ->
      Fmt.str "n=%d [%a]" n
        Fmt.(list ~sep:(any ";") (pair ~sep:(any "->") int int))
        es)
    gen_edges

let increl_of n edges =
  let t = Increl.create () in
  Increl.ensure_nodes t n;
  List.iter (fun (a, b) -> Increl.add_edge t a b) edges;
  t

let bitrel_of n edges =
  let b = Bitrel.create (Int_set.of_list (List.init n Fun.id)) in
  List.iter (fun (a, b') -> Bitrel.add b a b') edges;
  b

(* Components from the batch side: a ~ b iff mutually reachable in the
   closure (or equal) — Tarjan's partition without exposing Tarjan. *)
let batch_partition n edges =
  let c = bitrel_of n edges in
  Bitrel.close c;
  let repr = Array.init n Fun.id in
  for a = 0 to n - 1 do
    for b = 0 to a - 1 do
      if Bitrel.mem c a b && Bitrel.mem c b a && repr.(a) = a then
        repr.(a) <- repr.(b)
    done
  done;
  repr

let is_cycle_of edges cycle =
  let mem a b = List.exists (fun (x, y) -> x = a && y = b) edges in
  match cycle with
  | [] -> false
  | first :: _ ->
    let rec ok = function
      | [] -> assert false
      | [ last ] -> mem last first
      | a :: (b :: _ as rest) -> mem a b && ok rest
    in
    ok cycle

(* ------------------------------------------------------------------ *)
(* Increl = batch kernel properties                                    *)
(* ------------------------------------------------------------------ *)

let prop_topo =
  QCheck.Test.make ~name:"increl: topo_sort = Bitrel.topo_sort" ~count:600
    arb_edges (fun (n, edges) ->
      let t = increl_of n edges in
      Increl.topo_sort t = Bitrel.topo_sort (bitrel_of n edges))

let prop_scc =
  QCheck.Test.make ~name:"increl: components = Tarjan condensation"
    ~count:600 arb_edges (fun (n, edges) ->
      let t = increl_of n edges in
      let repr = batch_partition n edges in
      let ok = ref true in
      for a = 0 to n - 1 do
        for b = 0 to n - 1 do
          let together = Increl.same_component t a b in
          if together <> (repr.(a) = repr.(b)) then ok := false
        done
      done;
      !ok)

let prop_order_valid =
  QCheck.Test.make
    ~name:"increl: maintained order valid after every insertion" ~count:600
    arb_edges (fun (n, edges) ->
      let t = Increl.create () in
      Increl.ensure_nodes t n;
      let seen = ref [] in
      List.for_all
        (fun (a, b) ->
          Increl.add_edge t a b;
          seen := (a, b) :: !seen;
          (* Distinct keys per component; every cross-component inserted
             edge ascends. *)
          List.for_all
            (fun (x, y) ->
              Increl.same_component t x y || Increl.pos t x < Increl.pos t y)
            !seen)
        edges)

let prop_acyclic_flag =
  QCheck.Test.make ~name:"increl: acyclic flag = batch cycle detection"
    ~count:600 arb_edges (fun (n, edges) ->
      let t = increl_of n edges in
      Increl.acyclic t = Bitrel.is_acyclic (bitrel_of n edges))

let prop_find_cycle =
  QCheck.Test.make ~name:"increl: find_cycle returns a real cycle"
    ~count:600 arb_edges (fun (n, edges) ->
      let t = increl_of n edges in
      match Increl.find_cycle t with
      | None -> Increl.acyclic t
      | Some cycle -> (not (Increl.acyclic t)) && is_cycle_of edges cycle)

let prop_pos_extension =
  QCheck.Test.make
    ~name:"increl: pos sorts any subset into a linear extension" ~count:600
    arb_edges (fun (n, edges) ->
      let t = increl_of n edges in
      QCheck.assume (Increl.acyclic t);
      let order = List.init n Fun.id in
      let sorted =
        List.sort (fun a b -> compare (Increl.pos t a) (Increl.pos t b)) order
      in
      let rank = Array.make n 0 in
      List.iteri (fun i v -> rank.(v) <- i) sorted;
      List.for_all (fun (a, b) -> a = b || rank.(a) < rank.(b)) edges)

let test_increl_basics () =
  let t = Increl.create () in
  Increl.ensure_nodes t 4;
  Increl.add_edge t 0 1;
  Increl.add_edge t 1 2;
  Alcotest.(check bool) "acyclic chain" true (Increl.acyclic t);
  Alcotest.(check (option (list int))) "topo of chain"
    (Some [ 0; 1; 2; 3 ]) (Increl.topo_sort t);
  Increl.add_edge t 2 0;
  Alcotest.(check bool) "cycle detected" false (Increl.acyclic t);
  Alcotest.(check bool) "component merged" true (Increl.same_component t 0 2);
  Alcotest.(check bool) "outsider separate" false (Increl.same_component t 0 3);
  (match Increl.find_cycle t with
  | Some cycle ->
    Alcotest.(check bool) "witness is a cycle" true
      (is_cycle_of [ (0, 1); (1, 2); (2, 0) ] cycle)
  | None -> Alcotest.fail "expected a cycle witness");
  (* Duplicate insertions leave the state coherent. *)
  Increl.add_edge t 0 1;
  Alcotest.(check bool) "still cyclic" false (Increl.acyclic t)

let test_increl_self_loop () =
  let t = Increl.create () in
  Increl.ensure_nodes t 2;
  Increl.add_edge t 1 1;
  Alcotest.(check bool) "self-loop is a cycle" false (Increl.acyclic t);
  Alcotest.(check (option (list int))) "singleton witness" (Some [ 1 ])
    (Increl.find_cycle t);
  Alcotest.(check (option (list int))) "topo refuses" None (Increl.topo_sort t)

let suite =
  [
    ( "increl",
      [
        Alcotest.test_case "basics" `Quick test_increl_basics;
        Alcotest.test_case "self-loop" `Quick test_increl_self_loop;
        QCheck_alcotest.to_alcotest prop_topo;
        QCheck_alcotest.to_alcotest prop_scc;
        QCheck_alcotest.to_alcotest prop_order_valid;
        QCheck_alcotest.to_alcotest prop_acyclic_flag;
        QCheck_alcotest.to_alcotest prop_find_cycle;
        QCheck_alcotest.to_alcotest prop_pos_extension;
      ] );
  ]
