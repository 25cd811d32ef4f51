(* The experiment harness: regenerates every figure- and theorem-derived
   experiment of the reproduction (the paper has no numeric tables; see
   DESIGN.md section 3 and EXPERIMENTS.md for the mapping), then runs
   bechamel micro-benchmarks of the core algorithms.

   Usage:  dune exec bench/main.exe [-- e1 e5 micro ...]   (default: all) *)

open Repro_model
open Repro_workload
module F = Figures
module Compc = Repro_core.Compc
module Engine = Repro_core.Engine
module Shrink = Repro_core.Shrink
module Sim = Repro_runtime.Sim
module Template = Repro_runtime.Template
module Workloads = Repro_runtime.Workloads

module Json = Repro_obs.Json
module Metrics = Repro_obs.Metrics
module Pool = Repro_par.Pool

(* Monotonic wall clock in seconds.  [Sys.time] is process CPU time, which
   hides parallel speedups (n busy domains burn n CPU-seconds per wall
   second), so timed experiments report both. *)
let now_wall = Repro_obs.Clock.now_wall

let section id title =
  Fmt.pr "@.==================================================================@.";
  Fmt.pr "%s: %s@." (String.uppercase_ascii id) title;
  Fmt.pr "==================================================================@."

(* Machine-readable results, accumulated by whichever experiments run and
   written to BENCH_core.json at exit so future PRs have a perf trajectory
   to compare against (see EXPERIMENTS.md). *)
let bench_json : (string * Json.t) list ref = ref []

let record_json section payload =
  bench_json := (section, payload) :: List.remove_assoc section !bench_json

let write_bench_json () =
  match !bench_json with
  | [] -> ()
  | sections ->
    let doc =
      Json.Obj (("schema", Json.String "bench-core/1") :: List.rev sections)
    in
    let oc = open_out "BENCH_core.json" in
    Json.to_channel oc doc;
    output_char oc '\n';
    close_out oc;
    Fmt.pr "@.bench results written to BENCH_core.json@."

(* ------------------------------------------------------------------ *)
(* E1: Figure 1 — structure of a general composite system             *)
(* ------------------------------------------------------------------ *)

let e1 () =
  section "e1" "Figure 1: an order-3 composite configuration";
  let h = F.figure1 () in
  Fmt.pr "schedules=%d roots=%d internal=%d leaves=%d order=%d@."
    (History.n_schedules h)
    (List.length (History.roots h))
    (List.length (History.internal_nodes h))
    (List.length (History.leaves h))
    (History.order h);
  List.iter
    (fun (s : History.schedule) ->
      let invoked =
        Repro_order.Ids.Int_set.elements
          (Repro_order.Rel.succs (History.invocation_graph h) s.History.sid)
        |> List.map (fun c -> (History.schedule h c).History.sname)
      in
      Fmt.pr "  %-3s level %d  invokes: %a@." s.History.sname
        (History.level h s.History.sid)
        Fmt.(list ~sep:comma string)
        invoked)
    (History.schedules h);
  Fmt.pr "shape: %a; valid: %b; Comp-C: %b@."
    Repro_criteria.Shapes.pp
    (Repro_criteria.Shapes.classify h)
    (Validate.check h = [])
    (Compc.is_correct h)

(* ------------------------------------------------------------------ *)
(* E2: Figure 2 — conflict and observed order                         *)
(* ------------------------------------------------------------------ *)

let e2 () =
  section "e2" "Figure 2: observed order climbing the execution trees";
  let f = F.figure2 () in
  let h = f.F.h2 in
  let rel = Repro_core.Observed.compute h in
  let obs = rel.Repro_core.Observed.obs in
  let pn = History.pp_node h in
  let row a b =
    Fmt.pr "  %a <_o %a : %b  CON: %b@." pn a pn b
      (Repro_order.Rel.mem a b obs)
      (Repro_core.Observed.conflict h rel a b)
  in
  row f.F.f2_o13 f.F.f2_o25;
  row f.F.f2_t11 f.F.f2_t21;
  row f.F.f2_t1 f.F.f2_t2;
  Fmt.pr "expected: all three pairs observed and conflicting (paper sec. 3.2)@."

(* ------------------------------------------------------------------ *)
(* E3/E4: Figures 3 and 4 — the reduction at work                     *)
(* ------------------------------------------------------------------ *)

let e3 () =
  section "e3" "Figure 3: an incorrect execution (reduction gets stuck)";
  Compc.explain Fmt.stdout (Compc.check (F.figure3 ()).F.ht);
  Fmt.pr "expected: one successful step, then no calculation for the roots@."

let e4 () =
  section "e4" "Figure 4: a correct execution (orders forgotten at a common schedule)";
  Compc.explain Fmt.stdout (Compc.check (F.figure4 ()).F.ht);
  Fmt.pr "expected: reduction completes; pulled-up orders were not conflicts@."

(* ------------------------------------------------------------------ *)
(* E5-E7: Theorems 2-4, empirically                                   *)
(* ------------------------------------------------------------------ *)

(* Each agreement probe generates its own history from its own seed, so the
   batch is embarrassingly parallel: fan it out over the domain pool
   (REPRO_JOBS; sequential on a single-core box) and fold the per-item
   verdicts in input order. *)
let agreement ~n gen special =
  let verdicts =
    Pool.parmap
      (fun i ->
        let h = gen i in
        if Validate.check h <> [] then None
        else Some (special h, Compc.is_correct h))
      (List.init n (fun i -> i))
  in
  List.fold_left
    (fun (agree, accept, special_accept, invalid) v ->
      match v with
      | None -> (agree, accept, special_accept, invalid + 1)
      | Some (s, c) ->
        ( (agree + if s = c then 1 else 0),
          (accept + if c then 1 else 0),
          (special_accept + if s then 1 else 0),
          invalid ))
    (0, 0, 0, 0) verdicts

let pp_agreement name n (agree, accept, special_accept, invalid) =
  Fmt.pr
    "  %-24s n=%4d  agree=%4d (%.1f%%)  special-accepts=%d  comp-c-accepts=%d  invalid=%d %s@."
    name n agree
    (100.0 *. float_of_int agree /. float_of_int (max 1 (n - invalid)))
    special_accept accept invalid
    (if agree = n - invalid then "[OK]" else "[DISAGREEMENT!]")

let e5 () =
  section "e5" "Theorem 2: SCC <=> Comp-C on stacks (random histories)";
  List.iter
    (fun (levels, roots, n) ->
      let r =
        agreement ~n
          (fun i -> Gen.stack (Prng.create ~seed:(1_000_000 + i)) ~levels ~roots)
          Repro_criteria.Special.scc
      in
      pp_agreement (Fmt.str "stack levels=%d roots=%d" levels roots) n r)
    [ (2, 2, 600); (2, 4, 600); (3, 3, 600); (4, 2, 400); (5, 2, 300) ]

let e6 () =
  section "e6" "Theorem 3: FCC <=> Comp-C on forks (random histories)";
  List.iter
    (fun (branches, roots, n) ->
      let r =
        agreement ~n
          (fun i -> Gen.fork (Prng.create ~seed:(2_000_000 + i)) ~branches ~roots)
          Repro_criteria.Special.fcc
      in
      pp_agreement (Fmt.str "fork branches=%d roots=%d" branches roots) n r)
    [ (2, 3, 600); (3, 4, 600); (4, 5, 400) ]

let e7 () =
  section "e7" "Theorem 4: JCC <=> Comp-C on joins (random histories)";
  List.iter
    (fun (branches, roots, n) ->
      let r =
        agreement ~n
          (fun i -> Gen.join (Prng.create ~seed:(3_000_000 + i)) ~branches ~roots)
          Repro_criteria.Special.jcc
      in
      pp_agreement (Fmt.str "join branches=%d roots=%d" branches roots) n r)
    [ (2, 3, 600); (3, 4, 600); (2, 6, 400) ]

(* ------------------------------------------------------------------ *)
(* E8: the correctness-class hierarchy (sec. 1 and 4 claims)           *)
(* ------------------------------------------------------------------ *)

let e8 () =
  section "e8" "Containment of correctness classes on random stacks";
  Fmt.pr "acceptance counts; the paper claims LLSR, MLSR and OPSR are proper@.";
  Fmt.pr "subsets of SCC = Comp-C (an inversion would falsify that claim), and@.";
  Fmt.pr "classically LLSR is contained in MLSR.  FlatCSR ignores level@.";
  Fmt.pr "semantics in both directions and is incomparable:@.";
  let run ~levels ~roots ~n ~seed0 =
    let counts = Hashtbl.create 8 in
    let bump k =
      Hashtbl.replace counts k (1 + Option.value ~default:0 (Hashtbl.find_opt counts k))
    in
    let inv = Hashtbl.create 8 in
    let bump_inv k =
      Hashtbl.replace inv k (1 + Option.value ~default:0 (Hashtbl.find_opt inv k))
    in
    for i = 0 to n - 1 do
      let h = Gen.stack (Prng.create ~seed:(seed0 + i)) ~levels ~roots in
      let report = Repro_criteria.Classic.accepted_by h in
      let compc = List.assoc "Comp-C" report in
      List.iter (fun (name, v) -> if v then bump name) report;
      List.iter
        (fun name -> if List.assoc name report && not compc then bump_inv name)
        [ "FlatCSR"; "LLSR"; "MLSR"; "OPSR" ];
      if List.assoc "LLSR" report && not (List.assoc "MLSR" report) then
        bump_inv "LLSR-not-MLSR"
    done;
    let get t k = Option.value ~default:0 (Hashtbl.find_opt t k) in
    let claimed_inversions =
      get inv "LLSR" + get inv "MLSR" + get inv "OPSR" + get inv "LLSR-not-MLSR"
    in
    Fmt.pr
      "  stack levels=%d roots=%d n=%d:  FlatCSR=%3d  LLSR=%3d  MLSR=%3d  OPSR=%3d  SCC=%3d  Comp-C=%3d@."
      levels roots n (get counts "FlatCSR") (get counts "LLSR") (get counts "MLSR")
      (get counts "OPSR") (get counts "SCC") (get counts "Comp-C");
    Fmt.pr
      "    inversions: LLSR=%d MLSR=%d OPSR=%d LLSR-beyond-MLSR=%d %s   (FlatCSR=%d, expected: incomparable)@."
      (get inv "LLSR") (get inv "MLSR") (get inv "OPSR") (get inv "LLSR-not-MLSR")
      (if claimed_inversions = 0 then "[OK]" else "[VIOLATION!]")
      (get inv "FlatCSR")
  in
  run ~levels:2 ~roots:3 ~n:500 ~seed0:4_000_000;
  run ~levels:3 ~roots:2 ~n:500 ~seed0:4_500_000;
  Fmt.pr "@.gap witnesses (hand-built, see the test suite):@.";
  Fmt.pr "  forgetting-stack:    LLSR, MLSR and FlatCSR reject; SCC = Comp-C accept@.";
  Fmt.pr "  llsr-mlsr-gap:       LLSR rejects; MLSR and Comp-C accept@.";
  Fmt.pr "  opsr-gap (flat 3tx): OPSR rejects; SCC = Comp-C accept@."

(* ------------------------------------------------------------------ *)
(* E9: cost of the reduction                                           *)
(* ------------------------------------------------------------------ *)

let time f =
  let c0 = Repro_obs.Clock.now_cpu () and w0 = now_wall () in
  let r = f () in
  (r, Repro_obs.Clock.now_cpu () -. c0, now_wall () -. w0)

(* Allocation profile of one timed row: minor and major words allocated
   during [f] (deltas of the GC's monotone counters), how far [f] pushed
   the process's top-of-heap high-water mark, and what it left live.
   Absolute [top_heap_words] is useless per row — the high-water mark is
   process-global and monotone, so every variant after the hungriest one
   used to report the identical number.  Compacting before and after
   isolates the row: the pre-compaction settles inherited garbage (and
   resets nothing — the mark only ever grows, which is exactly why the
   {e delta} is the attributable quantity), the post-compaction makes
   [live_words] mean real retained data rather than heap shape.  The
   compactions sit outside the rows' internal wall/cpu timers, so timings
   are unaffected. *)
let gc_row f =
  Gc.compact ();
  let g0 = Gc.stat () in
  let r = f () in
  let g1 = Gc.quick_stat () in
  Gc.compact ();
  let g2 = Gc.stat () in
  let gc =
    Json.Obj
      [
        ("minor_words", Json.Float (g1.Gc.minor_words -. g0.Gc.minor_words));
        ("major_words", Json.Float (g1.Gc.major_words -. g0.Gc.major_words));
        ("top_heap_growth_words", Json.Int (g2.Gc.top_heap_words - g0.Gc.top_heap_words));
        ("live_words_delta", Json.Int (g2.Gc.live_words - g0.Gc.live_words));
      ]
  in
  (r, gc)

(* The committed pre-kernel baseline; rows carry cpu_s measured on a
   single-threaded run, so cpu ~= wall there. *)
let e9_baseline_path = "bench/baselines/e9_prechange.json"

let e9_baseline () =
  match open_in e9_baseline_path with
  | exception Sys_error _ -> None
  | ic ->
    let len = in_channel_length ic in
    let text = really_input_string ic len in
    close_in ic;
    (match Json.of_string text with
    | exception Json.Parse_error _ -> None
    | doc -> (
      match Json.member "rows" doc with
      | Some (Json.Obj rows) ->
        Some
          (List.filter_map
             (fun (name, row) ->
               match Json.member "cpu_s" row with
               | Some (Json.Float s) -> Some (name, s)
               | Some (Json.Int s) -> Some (name, float_of_int s)
               | _ -> None)
             rows)
      | _ -> None))

let e9 () =
  section "e9" "Checker scalability: cost of the full Comp-C decision";
  (* REPRO_E9_ROOTS_MAX caps the root counts so CI smoke runs stay cheap;
     the full ladder runs by default. *)
  let roots_max =
    match Sys.getenv_opt "REPRO_E9_ROOTS_MAX" with
    | Some s -> ( match int_of_string_opt s with Some n when n > 0 -> n | _ -> max_int)
    | None -> max_int
  in
  let root_sizes = List.filter (fun r -> r <= roots_max) [ 2; 4; 8; 16; 32; 64 ] in
  Fmt.pr "  %-34s %8s %8s %10s %10s %8s@." "history" "nodes" "leaves" "cpu_s"
    "wall_s" "verdict";
  let rows = ref [] in
  let row name h =
    let (v, cpu, wall), gc = gc_row (fun () -> time (fun () -> Compc.check h)) in
    let verdict = if Compc.is_correct_verdict v then "accept" else "reject" in
    Fmt.pr "  %-34s %8d %8d %10.4f %10.4f %8s@." name (History.n_nodes h)
      (List.length (History.leaves h))
      cpu wall verdict;
    rows :=
      ( name,
        Json.Obj
          [
            ("nodes", Json.Int (History.n_nodes h));
            ("leaves", Json.Int (List.length (History.leaves h)));
            ("cpu_s", Json.Float cpu);
            ("wall_s", Json.Float wall);
            ("verdict", Json.String verdict);
            ("gc", gc);
          ] )
      :: !rows
  in
  (* Dense conflicts: almost surely rejected (failures found early, at a low
     level); sparse conflicts: mostly accepted -- the reduction must run all
     the way to the roots, the expensive case. *)
  List.iter
    (fun (tag, items_of_roots) ->
      List.iter
        (fun roots ->
          let profile =
            {
              Gen.default_profile with
              Gen.ops_min = 2;
              ops_max = 2;
              items = items_of_roots roots;
            }
          in
          row
            (Fmt.str "stack levels=3 roots=%d (%s)" roots tag)
            (Gen.stack ~profile (Prng.create ~seed:42) ~levels:3 ~roots))
        root_sizes)
    [ ("dense", (fun _ -> 2)); ("sparse", (fun roots -> 8 * roots)) ];
  (* Serial clients: always accepted, so the reduction always runs to the
     top -- the worst case for the checker. *)
  List.iter
    (fun roots ->
      let profile =
        {
          Gen.default_profile with
          Gen.ops_min = 2;
          ops_max = 2;
          root_input_prob = 1.0;
          strong_input_prob = 1.0;
          intra_prob = 1.0;
          intra_strong_prob = 1.0;
        }
      in
      row
        (Fmt.str "stack levels=3 roots=%d (serial)" roots)
        (Gen.stack ~profile (Prng.create ~seed:42) ~levels:3 ~roots))
    root_sizes;
  let profile = { Gen.default_profile with Gen.ops_min = 2; ops_max = 2 } in
  List.iter
    (fun (schedules, roots) ->
      row
        (Fmt.str "general schedules=%d roots=%d" schedules roots)
        (Gen.general ~profile (Prng.create ~seed:42) ~schedules ~roots))
    (List.filter (fun (_, r) -> r <= roots_max) [ (4, 8); (6, 16); (8, 32); (8, 64) ]);
  record_json "checker" (Json.Obj (List.rev !rows));
  (* Before/after speedup against the committed pre-kernel baseline: every
     row present in both runs gets an old/new/ratio record under
     e9.speedup. *)
  match e9_baseline () with
  | None -> Fmt.pr "  (no baseline at %s; speedup section skipped)@." e9_baseline_path
  | Some baseline ->
    let wall_of row =
      match Json.member "wall_s" row with Some (Json.Float w) -> Some w | _ -> None
    in
    let speedups =
      List.filter_map
        (fun (name, row) ->
          match (List.assoc_opt name baseline, wall_of row) with
          | Some old_s, Some new_s when new_s > 0.0 ->
            Some
              ( name,
                Json.Obj
                  [
                    ("old_wall_s", Json.Float old_s);
                    ("new_wall_s", Json.Float new_s);
                    ("ratio", Json.Float (old_s /. new_s));
                  ] )
          | _ -> None)
        (List.rev !rows)
    in
    if speedups <> [] then begin
      Fmt.pr "@.  speedup vs pre-kernel baseline (%s):@." e9_baseline_path;
      Fmt.pr "  %-34s %10s %10s %8s@." "history" "old_s" "new_s" "ratio";
      List.iter
        (fun (name, j) ->
          match (Json.member "old_wall_s" j, Json.member "new_wall_s" j,
                 Json.member "ratio" j)
          with
          | Some (Json.Float o), Some (Json.Float n), Some (Json.Float r) ->
            Fmt.pr "  %-34s %10.4f %10.4f %7.1fx@." name o n r
          | _ -> ())
        speedups;
      record_json "e9" (Json.Obj [ ("speedup", Json.Obj speedups) ])
    end

(* ------------------------------------------------------------------ *)
(* E10: concurrency-control protocols on the runtime                   *)
(* ------------------------------------------------------------------ *)

let protocols =
  [
    ("serial", Sim.Serial);
    ("closed", Sim.Locking { closed = true });
    ("open", Sim.Locking { closed = false });
    ("certify", Sim.Certify);
  ]

(* perf: one instrumented run per workload x protocol, recorded to
   BENCH_core.json — simulated throughput and latency percentiles, plus the
   wall-clock cost of the run itself. *)
let perf () =
  section "perf" "Simulator throughput and latency percentiles per protocol";
  Fmt.pr "  %-10s %-7s %9s %10s %7s %7s %7s %9s@." "workload" "proto" "committed"
    "throughput" "p50" "p90" "p99" "wall-s";
  let rows =
    List.map
      (fun (w : Workloads.workload) ->
        let per_proto =
          List.map
            (fun (pname, protocol) ->
              let metrics = Metrics.create () in
              let params =
                {
                  Sim.default_params with
                  Sim.protocol;
                  clients = 6;
                  txs_per_client = 8;
                  seed = 1;
                  lock_timeout = 10.0;
                  backoff = 3.0;
                }
              in
              let t0 = now_wall () in
              let st = Sim.run ~metrics params w.Workloads.topology ~gen:w.Workloads.gen in
              let wall = now_wall () -. t0 in
              let throughput =
                if st.Sim.makespan > 0.0 then
                  float_of_int st.Sim.committed /. st.Sim.makespan
                else 0.0
              in
              let lat q =
                Option.value ~default:0.0 (Metrics.percentile metrics "sim.latency" q)
              in
              Fmt.pr "  %-10s %-7s %9d %10.3f %7.2f %7.2f %7.2f %9.3f@."
                w.Workloads.name pname st.Sim.committed throughput (lat 0.5)
                (lat 0.9) (lat 0.99) wall;
              ( pname,
                Json.Obj
                  [
                    ("committed", Json.Int st.Sim.committed);
                    ("aborts", Json.Int st.Sim.aborts);
                    ("given_up", Json.Int st.Sim.given_up);
                    ("lock_waits", Json.Int st.Sim.lock_waits);
                    ("makespan", Json.Float st.Sim.makespan);
                    ("throughput", Json.Float throughput);
                    ("latency_p50", Json.Float (lat 0.5));
                    ("latency_p90", Json.Float (lat 0.9));
                    ("latency_p99", Json.Float (lat 0.99));
                    ("wall_s", Json.Float wall);
                  ] ))
            protocols
        in
        (w.Workloads.name, Json.Obj per_proto))
      (Workloads.all ())
  in
  record_json "sim" (Json.Obj rows)

let e10 () =
  section "e10" "Protocols x workloads: performance and safety of emitted histories";
  Fmt.pr "  (10 seeds each; correct%% = share of runs whose emitted history is Comp-C)@.";
  Fmt.pr "  %-10s %-7s %9s %7s %8s %9s %9s %9s@." "workload" "proto" "committed"
    "aborts" "given-up" "makespan" "latency" "correct%";
  List.iter
    (fun (w : Workloads.workload) ->
      List.iter
        (fun (pname, protocol) ->
          let seeds = List.init 10 (fun i -> 100 + i) in
          let acc =
            List.map
              (fun seed ->
                let params =
                  {
                    Sim.default_params with
                    Sim.protocol;
                    clients = 6;
                    txs_per_client = 6;
                    seed;
                    lock_timeout = 10.0;
                    backoff = 3.0;
                  }
                in
                let st = Sim.run params w.Workloads.topology ~gen:w.Workloads.gen in
                (st, Compc.is_correct st.Sim.history))
              seeds
          in
          let n = float_of_int (List.length acc) in
          let favg f = List.fold_left (fun s (st, _) -> s +. f st) 0.0 acc /. n in
          let correct = List.length (List.filter snd acc) * 100 / List.length acc in
          Fmt.pr "  %-10s %-7s %9.1f %7.1f %8.1f %9.2f %9.2f %8d%%@."
            w.Workloads.name pname
            (favg (fun st -> float_of_int st.Sim.committed))
            (favg (fun st -> float_of_int st.Sim.aborts))
            (favg (fun st -> float_of_int st.Sim.given_up))
            (favg (fun st -> st.Sim.makespan))
            (favg (fun st -> st.Sim.mean_latency))
            correct)
        protocols)
    (Workloads.all ());
  Fmt.pr
    "@.expected shape: serial slowest; open nesting most concurrent; serial,@.\
     closed nesting and certify always 100%% correct (certify by construction);@.\
     open nesting loses correctness only on the federated workload@.\
     (autonomous front-ends: the Figure-3 situation)@."

(* ------------------------------------------------------------------ *)
(* E11: weak vs strong orders                                          *)
(* ------------------------------------------------------------------ *)

let e11 () =
  section "e11" "Weak vs strong orders: parallelism within a transaction";
  Fmt.pr
    "  (each customer works on private accounts, so the only difference is@.\
     whether a transaction's services are strongly ordered or left weak)@.";
  let topo =
    {
      Repro_runtime.Template.components =
        [| ("bank", Conflict.Never); ("store", Conflict.Rw) |];
    }
  in
  let gen sequential rng ~client ~seq =
    ignore seq;
    ignore rng;
    let svc i =
      (* distinct accounts per service: the comparison isolates ordering,
         not lock contention *)
      let a = Fmt.str "c%d-acct%d" client i in
      Repro_runtime.Template.call ~component:1 ~sequential:true
        (Label.v ~args:[ a ] "deposit")
        [
          Repro_runtime.Template.leaf (Label.read a);
          Repro_runtime.Template.leaf (Label.write a);
        ]
    in
    {
      (Repro_runtime.Template.call ~component:0 (Label.v "txn") (List.init 4 svc)) with
      Repro_runtime.Template.sequential;
    }
  in
  let variant name sequential =
    let params =
      {
        Sim.default_params with
        Sim.protocol = Sim.Locking { closed = true };
        clients = 6;
        txs_per_client = 8;
        seed = 7;
        lock_timeout = 20.0;
      }
    in
    let st = Sim.run params topo ~gen:(gen sequential) in
    Fmt.pr "  %-28s committed=%3d makespan=%8.2f latency=%6.2f comp-c=%b@." name
      st.Sim.committed st.Sim.makespan st.Sim.mean_latency
      (Compc.is_correct st.Sim.history)
  in
  variant "strong (sequential services)" true;
  variant "weak (parallel services)" false;
  Fmt.pr "expected: the weak variant finishes markedly earlier at equal safety@."

(* ------------------------------------------------------------------ *)
(* E12: incremental certification (the monitor vs full rechecks)       *)
(* ------------------------------------------------------------------ *)

(* The certification workload: certify every root-prefix of one history in
   order, the way the Certify protocol and compcheck --monitor do.  The
   full-recheck side runs the batch checker on each prefix with cold memos
   (exactly what the simulator did before the monitor existed); the monitor
   side appends the same prefixes into one monitor.  Prefix construction is
   untimed on both sides, and each side gets its own freshly built prefix
   chain so the full-recheck side cannot ride on conflict caches the
   monitor warmed. *)
let e12 () =
  section "e12"
    "Incremental certification: monitor appends vs full recheck per prefix";
  let roots_max =
    match Sys.getenv_opt "REPRO_E12_ROOTS_MAX" with
    | Some s -> ( match int_of_string_opt s with Some n when n > 0 -> n | _ -> max_int)
    | None -> max_int
  in
  let root_sizes = List.filter (fun r -> r <= roots_max) [ 8; 16; 32; 64 ] in
  Fmt.pr "  %-34s %8s %10s %10s %8s %9s %6s@." "history" "nodes" "full_s"
    "monitor_s" "speedup" "fastpath" "delta";
  let rows = ref [] in
  let headline = ref None in
  let row name ~headline_row mk =
    let chain () =
      let h = mk () in
      let n = List.length (History.roots h) in
      List.init n (fun k -> History.prefix_by_roots h (k + 1))
    in
    let (accepts_full, full_wall), gc_full =
      gc_row (fun () ->
          let prefixes = chain () in
          let t0 = now_wall () in
          let accepts =
            List.fold_left
              (fun acc p -> if Compc.is_correct p then acc + 1 else acc)
              0 prefixes
          in
          (accepts, now_wall () -. t0))
    in
    let (accepts_mon, mon_wall, stats), gc_mon =
      gc_row (fun () ->
          let prefixes = chain () in
          let m = Engine.create () in
          let t0 = now_wall () in
          let accepts =
            List.fold_left
              (fun acc p ->
                match Engine.extend m p with
                | Engine.Accepted _ -> acc + 1
                | Engine.Rejected _ -> acc)
              0 prefixes
          in
          (accepts, now_wall () -. t0, Engine.stats m))
    in
    let fastpath = stats.Engine.fastpath_hits in
    let delta_hits = stats.Engine.delta_hits in
    if accepts_full <> accepts_mon then
      Fmt.pr "  %-34s [VERDICT MISMATCH: full=%d monitor=%d]@." name accepts_full
        accepts_mon;
    let nodes = History.n_nodes (mk ()) in
    let speedup = if mon_wall > 0.0 then full_wall /. mon_wall else 0.0 in
    Fmt.pr "  %-34s %8d %10.4f %10.4f %7.1fx %9d %6d@." name nodes full_wall
      mon_wall speedup fastpath delta_hits;
    if headline_row then headline := Some speedup;
    rows :=
      ( name,
        Json.Obj
          [
            ("nodes", Json.Int nodes);
            ("prefixes", Json.Int (List.length (chain ())));
            ("full_wall_s", Json.Float full_wall);
            ("monitor_wall_s", Json.Float mon_wall);
            ("speedup", Json.Float speedup);
            ("fastpath_hits", Json.Int fastpath);
            ("delta_hits", Json.Int delta_hits);
            ("accepted_prefixes", Json.Int accepts_mon);
            ("gc_full", gc_full);
            ("gc_monitor", gc_mon);
          ] )
      :: !rows
  in
  let sparse roots =
    { Gen.default_profile with Gen.ops_min = 2; ops_max = 2; items = 8 * roots }
  in
  (* Streaming logs: the prefixes model an execution growing one root at a
     time, which is the monitor's contract (the simulator emits exactly
     this shape).  Batch interleavings are covered by the last row — the
     monitor falls back to full reductions there and must stay within
     noise of the batch checker. *)
  List.iter
    (fun roots ->
      row
        (Fmt.str "stack levels=3 roots=%d (stream)" roots)
        ~headline_row:(roots = List.fold_left max 0 root_sizes)
        (fun () ->
          Gen.stack ~profile:(sparse roots) ~stream:true (Prng.create ~seed:42)
            ~levels:3 ~roots))
    root_sizes;
  List.iter
    (fun (schedules, roots) ->
      row
        (Fmt.str "general schedules=%d roots=%d (stream)" schedules roots)
        ~headline_row:false
        (fun () ->
          let profile = { Gen.default_profile with Gen.ops_min = 2; ops_max = 2 } in
          Gen.general ~profile ~stream:true (Prng.create ~seed:42) ~schedules
            ~roots))
    (List.filter (fun (_, r) -> r <= roots_max) [ (6, 16); (8, 32) ]);
  (match List.filter (fun r -> r <= roots_max) [ 32 ] with
  | [ roots ] ->
    row
      (Fmt.str "stack levels=3 roots=%d (batch)" roots)
      ~headline_row:false
      (fun () ->
        Gen.stack ~profile:(sparse roots) (Prng.create ~seed:42) ~levels:3 ~roots)
  | _ -> ());
  (* End-to-end: the simulator's Certify protocol with the monitor oracle
     against the legacy full-recheck oracle, same workload and seed.  The
     simulations are verdict-identical (pinned by the test suite), so the
     only difference is the certification cost itself. *)
  let sim_rows =
    List.filter_map
      (fun (w : Workloads.workload) ->
        if w.Workloads.name <> "federated" then None
        else
          Some
            (List.map
               (fun (oracle, full) ->
                 let metrics = Metrics.create () in
                 let params =
                   {
                     Sim.default_params with
                     Sim.protocol = Sim.Certify;
                     clients = 6;
                     txs_per_client = 12;
                     seed = 1;
                     lock_timeout = 10.0;
                     backoff = 3.0;
                     certify_full_recheck = full;
                   }
                 in
                 let t0 = now_wall () in
                 let st =
                   Sim.run ~metrics params w.Workloads.topology ~gen:w.Workloads.gen
                 in
                 let run_wall = now_wall () -. t0 in
                 let certify_wall =
                   match Metrics.summary metrics "sim.certify_wall_s" with
                   | Some s -> s.Metrics.sum
                   | None -> 0.0
                 in
                 Fmt.pr
                   "  compsim certify/%-13s committed=%3d checks=%3.0f certify=%8.4fs run=%8.4fs@."
                   oracle st.Sim.committed
                   (Metrics.counter_value metrics "sim.certify_checks"
                   |> float_of_int)
                   certify_wall run_wall;
                 ( oracle,
                   Json.Obj
                     [
                       ("committed", Json.Int st.Sim.committed);
                       ("certify_wall_s", Json.Float certify_wall);
                       ("run_wall_s", Json.Float run_wall);
                     ] ))
               [ ("monitor", false); ("full-recheck", true) ]))
      (Workloads.all ())
    |> List.concat
  in
  let headline = Option.value ~default:0.0 !headline in
  Fmt.pr "  headline (largest stack): %.1fx@." headline;
  record_json "e12"
    (Json.Obj
       [
         ("speedup", Json.Float headline);
         ("rows", Json.Obj (List.rev !rows));
         ("sim_certify", Json.Obj sim_rows);
       ])

(* ------------------------------------------------------------------ *)
(* E13: ablation of the observed-order interpretation                  *)
(* ------------------------------------------------------------------ *)

let e13 () =
  section "e13"
    "Ablation: alternative readings of Def. 10 break the paper's theorems";
  Fmt.pr
    "  The OCR-damaged definitions admit several readings of how pulled-up@.\
     orders meet a schedule's commutativity knowledge (DESIGN.md sec. 4).@.\
     Each variant below recomputes the observed order and re-runs the@.\
     reduction; only the final reading reproduces SCC on stacks (Thm 2)@.\
     and the Figure 3/4 verdicts:@.";
  let variants =
    [
      ("final", Repro_core.Observed.Final);
      ("no-forgetting", Repro_core.Observed.No_forgetting);
      ("eager-forgetting", Repro_core.Observed.Eager_forgetting);
    ]
  in
  let decide variant h =
    let rel = Repro_core.Observed.compute_with variant h in
    Repro_core.Reduction.is_correct (Repro_core.Reduction.reduce ~rel h)
  in
  let fig3 = (F.figure3 ()).F.ht and fig4 = (F.figure4 ()).F.ht in
  let chain = F.input_order_chain () in
  Fmt.pr "  %-18s %10s %12s %8s %8s %8s@." "variant" "agree/600" "over-rejects"
    "fig3" "fig4" "chain";
  List.iter
    (fun (name, variant) ->
      let agree = ref 0 and over_reject = ref 0 and over_accept = ref 0 in
      for i = 0 to 599 do
        let h =
          Gen.stack
            (Prng.create ~seed:(7_000_000 + i))
            ~levels:(2 + (i mod 2))
            ~roots:(2 + (i mod 2))
        in
        let scc = Repro_criteria.Special.scc h in
        let v = decide variant h in
        if v = scc then incr agree
        else if scc && not v then incr over_reject
        else incr over_accept
      done;
      let fig3_v = decide variant fig3
      and fig4_v = decide variant fig4
      and chain_v = decide variant chain in
      let verdict_str v = if v then "accept" else "reject" in
      let breaks = !agree < 600 || fig3_v || not fig4_v || chain_v in
      Fmt.pr "  %-18s %6d %8d(+%d acc) %8s %8s %8s %s@." name !agree !over_reject
        !over_accept (verdict_str fig3_v) (verdict_str fig4_v) (verdict_str chain_v)
        (match name with
        | "final" -> if breaks then "[VIOLATION!]" else "[OK]"
        | _ -> if breaks then "[breaks, as expected]" else "[unexpectedly agrees]"))
    variants;
  Fmt.pr
    "  expected: only the final reading rejects fig3 and the input-order chain@.\
     while accepting fig4@."

(* ------------------------------------------------------------------ *)
(* E14: verdict forensics — explain/shrink cost, accept path untouched  *)
(* ------------------------------------------------------------------ *)

let e14 () =
  section "e14" "Verdict forensics: provenance replay, shrinking, evidence cost";
  Fmt.pr
    "  Forensics run only on the --explain path after a rejection; the@.\
     accept path never calls into them.  Per rejected history: the plain@.\
     decision, the provenance replay, the delta-debugging shrink and the@.\
     JSON evidence rendering, all wall-clock:@.";
  (* The simulator rejection compsim --check surfaces: the federated
     workload under open nesting leaks subtransaction orders across
     autonomous front-ends (seed 5 is a known violating run). *)
  let sim_reject =
    let w = Option.get (Workloads.find "federated") in
    let params =
      {
        Sim.default_params with
        Sim.protocol = Sim.Locking { closed = false };
        clients = 6;
        txs_per_client = 8;
        seed = 5;
        lock_timeout = 6.0;
        backoff = 2.0;
      }
    in
    (Sim.run params w.Workloads.topology ~gen:w.Workloads.gen).Sim.history
  in
  let corpus =
    [
      ("figure3", (F.figure3 ()).F.ht);
      ("figure4-conflict", (F.figure4 ~conflicting_top:true ()).F.ht);
      ("input-order-chain", F.input_order_chain ());
      ("sim-federated-open", sim_reject);
    ]
  in
  Fmt.pr "  %-20s %6s %9s %9s %12s %9s %14s@." "history" "nodes" "check-ms"
    "prov-ms" "shrink-ms" "json-ms" "shrunk";
  let rows =
    List.map
      (fun (name, h) ->
        let s, _, check_w = time (fun () -> Engine.of_history h) in
        let v = Compc.of_session s in
        assert (not (Compc.is_correct_verdict v));
        let prov, _, prov_w =
          time (fun () ->
              Repro_core.Provenance.build h v.Compc.relations)
        in
        assert (Repro_core.Provenance.consistent prov);
        let shr, _, shrink_w = time (fun () -> Shrink.shrink h) in
        let shr = Option.get shr in
        let ev, _, json_w =
          time (fun () ->
              Repro_obs.Json.to_string
                (Repro_forensics.Evidence.to_json
                   (Repro_forensics.Evidence.of_session s)))
        in
        ignore ev;
        Fmt.pr "  %-20s %6d %9.3f %9.3f %6.1f(%4d) %9.3f %8d -> %d@." name
          (History.n_nodes h) (check_w *. 1e3) (prov_w *. 1e3)
          (shrink_w *. 1e3) shr.Shrink.probes (json_w *. 1e3)
          (History.n_nodes h)
          (History.n_nodes shr.Shrink.history);
        ( name,
          Json.Obj
            [
              ("nodes", Json.Int (History.n_nodes h));
              ("check_wall_s", Json.Float check_w);
              ("provenance_wall_s", Json.Float prov_w);
              ("provenance_pairs", Json.Int (Repro_core.Provenance.cardinal prov));
              ("shrink_wall_s", Json.Float shrink_w);
              ("shrink_probes", Json.Int shr.Shrink.probes);
              ("shrunk_nodes", Json.Int (History.n_nodes shr.Shrink.history));
              ("json_wall_s", Json.Float json_w);
            ] ))
      corpus
  in
  (* Accept-path control: the same decision entry point over an accepted
     corpus, with the forensics library linked in.  Nothing on this path
     constructs a provenance index, a shrinker or an evidence object, so
     the per-check cost is the figure future PRs compare against the e9
     checker trajectory to confirm zero forensic overhead. *)
  let accepted =
    List.init 40 (fun i ->
        Gen.stack (Prng.create ~seed:(4_000 + i)) ~levels:2 ~roots:4)
  in
  let n_acc = List.length accepted in
  let (), _, accept_w =
    time (fun () -> List.iter (fun h -> ignore (Compc.check h)) accepted)
  in
  Fmt.pr
    "  accept-path control: %d accepted checks in %.3f ms (%.3f ms each); no@.\
     forensic code runs on this path@."
    n_acc (accept_w *. 1e3)
    (accept_w *. 1e3 /. float_of_int n_acc);
  record_json "e14"
    (Json.Obj
       [
         ("reject", Json.Obj rows);
         ( "accept_path",
           Json.Obj
             [
               ("checks", Json.Int n_acc);
               ("total_wall_s", Json.Float accept_w);
               ( "per_check_wall_s",
                 Json.Float (accept_w /. float_of_int n_acc) );
             ] );
       ])

(* ------------------------------------------------------------------ *)
(* E15: engine parity — one session vs split cold invocations          *)
(* ------------------------------------------------------------------ *)

let e15 () =
  section "e15" "Certification engine: one session vs split invocations";
  Fmt.pr
    "  The engine unification claim: servicing a verdict and its evidence@.\
     report from one analysis session beats the pre-engine flow of two@.\
     cold CLI runs (check, then explain re-parsing and re-analyzing),@.\
     while the batch accept path pays no measurable session overhead:@.";
  let reps =
    match Sys.getenv_opt "REPRO_E15_REPS" with
    | Some v -> (try max 1 (int_of_string v) with _ -> 25)
    | None -> 25
  in
  let sim_reject =
    let w = Option.get (Workloads.find "federated") in
    let params =
      {
        Sim.default_params with
        Sim.protocol = Sim.Locking { closed = false };
        clients = 6;
        txs_per_client = 8;
        seed = 5;
        lock_timeout = 6.0;
        backoff = 2.0;
      }
    in
    (Sim.run params w.Workloads.topology ~gen:w.Workloads.gen).Sim.history
  in
  let corpus =
    [
      ("figure3", (F.figure3 ()).F.ht);
      ("figure4-conflict", (F.figure4 ~conflicting_top:true ()).F.ht);
      ("input-order-chain", F.input_order_chain ());
      ("sim-federated-open", sim_reject);
    ]
  in
  Fmt.pr "  %-20s %6s %12s %12s %8s@." "history" "nodes" "split-ms"
    "session-ms" "speedup";
  let rows =
    List.map
      (fun (name, h) ->
        let text = Repro_histlang.Syntax.to_string h in
        (* The pre-engine CLI flow: `compcheck FILE` followed by
           `compcheck FILE --explain --format json`.  Each invocation
           parsed and ran the criterion report from scratch, and the
           explain run additionally re-ran the whole pipeline in a fresh
           session to obtain the evidence's certificate — three
           closure+reduction passes end to end. *)
        let (), _, split_w =
          time (fun () ->
              for _ = 1 to reps do
                let h1 = Repro_histlang.Syntax.parse text in
                ignore (Repro_criteria.Classic.accepted_by h1);
                let h2 = Repro_histlang.Syntax.parse text in
                ignore (Repro_criteria.Classic.accepted_by h2);
                ignore
                  (Json.to_string
                     (Repro_forensics.Evidence.to_json
                        (Repro_forensics.Evidence.of_session
                           (Engine.of_history h2))))
              done)
        in
        (* The engine flow of the new check subcommand: one parse, one
           session, the criterion report reading the session verdict and
           the evidence assembled from the session's caches. *)
        let (), _, session_w =
          time (fun () ->
              for _ = 1 to reps do
                let h1 = Repro_histlang.Syntax.parse text in
                let s = Engine.of_history h1 in
                ignore
                  (Repro_criteria.Classic.accepted_by
                     ~compc:(Engine.accepted s)
                     h1);
                ignore
                  (Json.to_string
                     (Repro_forensics.Evidence.to_json
                        (Repro_forensics.Evidence.of_session s)))
              done)
        in
        let speedup = split_w /. session_w in
        Fmt.pr "  %-20s %6d %12.3f %12.3f %7.2fx@." name (History.n_nodes h)
          (split_w *. 1e3 /. float_of_int reps)
          (session_w *. 1e3 /. float_of_int reps)
          speedup;
        ( name,
          Json.Obj
            [
              ("nodes", Json.Int (History.n_nodes h));
              ("split_wall_s", Json.Float (split_w /. float_of_int reps));
              ("session_wall_s", Json.Float (session_w /. float_of_int reps));
              ("speedup", Json.Float speedup);
            ] ))
      corpus
  in
  (* Accept-path control: the batch entry point now constructs a session
     per check; against the bare pipeline (closure + reduction, no session,
     no certificate bookkeeping) the overhead must stay in the noise.  Two
     identical corpora so both sides run against cold conflict memos. *)
  let mk () =
    List.init 60 (fun i ->
        Gen.stack (Prng.create ~seed:(7_000 + i)) ~levels:2 ~roots:4)
  in
  let direct_corpus = mk () and engine_corpus = mk () in
  let (), _, direct_w =
    time (fun () ->
        List.iter
          (fun h ->
            ignore
              (Repro_core.Reduction.reduce ~rel:(Repro_core.Observed.compute h) h))
          direct_corpus)
  in
  let (), _, engine_w =
    time (fun () ->
        List.iter (fun h -> ignore (Compc.check h)) engine_corpus)
  in
  let n_acc = List.length direct_corpus in
  let overhead = (engine_w -. direct_w) /. direct_w *. 100.0 in
  Fmt.pr
    "  accept-path control: %d checks, bare pipeline %.3f ms, engine %.3f ms \
     (%+.1f%%)@."
    n_acc (direct_w *. 1e3) (engine_w *. 1e3) overhead;
  record_json "e15"
    (Json.Obj
       [
         ("rows", Json.Obj rows);
         ( "accept_path",
           Json.Obj
             [
               ("checks", Json.Int n_acc);
               ("direct_wall_s", Json.Float direct_w);
               ("engine_wall_s", Json.Float engine_w);
               ("overhead_pct", Json.Float overhead);
             ] );
       ])

(* ------------------------------------------------------------------ *)
(* E16: telemetry overhead                                             *)
(* ------------------------------------------------------------------ *)

(* The production-observability claim: always-on telemetry — labeled
   metrics, live engine gauges and the flight recorder — must cost so
   little on the accept path that there is no reason to turn it off, and
   the recorder's memory must be O(capacity), independent of how long the
   monitored stream runs.  Measured by streaming the same prefix chain
   through two engine sessions: one over the null sink (one load + branch
   per instrumentation point) and one over a full metrics registry plus
   recorder.  CI gates the ratio via bench/baselines/e16_ci.json. *)
let e16 () =
  section "e16" "Telemetry overhead: null sink vs labeled metrics + flight recorder";
  Fmt.pr
    "  Streaming monitor accept path, whole prefix chain per run; the@.\
     full sink pays labeled counters, per-path histograms, live gauges@.\
     and one recorder event per append:@.";
  let roots_max =
    match Sys.getenv_opt "REPRO_E16_ROOTS_MAX" with
    | Some s -> (
      match int_of_string_opt s with Some n when n > 0 -> n | _ -> max_int)
    | None -> max_int
  in
  let reps =
    match Sys.getenv_opt "REPRO_E16_REPS" with
    | Some s -> (
      match int_of_string_opt s with Some n when n > 0 -> n | _ -> 5)
    | None -> 5
  in
  let sizes = List.filter (fun r -> r <= roots_max) [ 16; 32; 64 ] in
  Fmt.pr "  %-12s %6s %12s %12s %10s %8s@." "roots" "nodes" "null-ms"
    "full-ms" "overhead" "ratio";
  let rows =
    List.map
      (fun roots ->
        let h =
          Gen.stack (Prng.create ~seed:(16_000 + roots)) ~levels:2 ~roots
        in
        let prefixes =
          List.init roots (fun i -> History.prefix_by_roots h (i + 1))
        in
        let stream obs =
          let s = Engine.create ~obs () in
          List.iter (fun p -> ignore (Engine.extend s p)) prefixes;
          s
        in
        (* Warm-up: fault in the code paths once so neither side pays
           first-run effects. *)
        ignore (stream Repro_obs.Sink.null);
        let (), _, null_w =
          time (fun () ->
              for _ = 1 to reps do
                ignore (stream Repro_obs.Sink.null)
              done)
        in
        let last = ref Repro_obs.Recorder.null in
        let (), _, full_w =
          time (fun () ->
              for _ = 1 to reps do
                let recorder = Repro_obs.Recorder.create () in
                last := recorder;
                ignore
                  (stream
                     (Repro_obs.Sink.v ~metrics:(Metrics.create ()) ~recorder
                        ()))
              done)
        in
        let ratio = full_w /. null_w in
        let overhead_pct = (ratio -. 1.0) *. 100.0 in
        let recorder_words = Obj.reachable_words (Obj.repr !last) in
        Fmt.pr "  %-12d %6d %12.3f %12.3f %9.1f%% %7.2fx@." roots
          (History.n_nodes h)
          (null_w *. 1e3 /. float_of_int reps)
          (full_w *. 1e3 /. float_of_int reps)
          overhead_pct ratio;
        ( Fmt.str "stack-roots-%d" roots,
          Json.Obj
            [
              ("roots", Json.Int roots);
              ("nodes", Json.Int (History.n_nodes h));
              ("null_wall_s", Json.Float (null_w /. float_of_int reps));
              ("full_wall_s", Json.Float (full_w /. float_of_int reps));
              ("overhead_pct", Json.Float overhead_pct);
              ("overhead_ratio", Json.Float ratio);
              ("recorder_words", Json.Int recorder_words);
            ] ))
      sizes
  in
  (* Recorder memory vs stream length: record far past capacity and show
     the reachable size stays put — the ring really is bounded. *)
  let cap = Repro_obs.Recorder.default_capacity in
  Fmt.pr "  recorder memory (capacity %d):@." cap;
  let mem_rows =
    List.map
      (fun len ->
        let r = Repro_obs.Recorder.create () in
        for i = 1 to len do
          Repro_obs.Recorder.record r ~cat:"bench"
            ~labels:(Repro_obs.Labels.v [ ("i", string_of_int (i mod 97)) ])
            "event"
        done;
        let words = Obj.reachable_words (Obj.repr r) in
        Fmt.pr "    %7d events recorded -> %7d reachable words@." len words;
        (Fmt.str "events-%d" len, Json.Obj [ ("reachable_words", Json.Int words) ]))
      [ cap; 4 * cap; 16 * cap ]
  in
  record_json "e16"
    (Json.Obj
       [ ("rows", Json.Obj rows); ("recorder_memory", Json.Obj mem_rows) ])

(* ------------------------------------------------------------------ *)
(* E17: the incremental order kernel on open-transaction streams       *)
(* ------------------------------------------------------------------ *)

(* The O(delta) append claim.  E12's streams grow one {e root} at a time,
   which the structural delta paths already decide; this experiment streams
   the other shape — operations appended to transactions that are already
   open.  Levels stay stable but every append hangs a subtransaction under
   an old root, so before the order kernel the monitor's only option was a
   full reduction per append: O(history) each, O(n^2) for the stream.  The
   kernel re-checks just the perturbed cluster and feeds the edge delta to
   its incremental topological orders, so the whole stream is O(total
   delta).  Two criteria, both gated in CI:
   - wall clock: the kernel stream must beat per-append
     incremental-closure + full-reduction (the pre-kernel cost of the same
     appends) — the speedup must grow with root count;
   - allocation: minor words per steady-state append must stay flat as the
     root count (hence the history the deltas land in) grows. *)

let e17_prefix ~roots k =
  (* Base (k = 0): [roots] top transactions, each with one subtransaction
     updating its own item.  Append i hangs one more subtransaction under
     root [i mod roots], writing that root's item: the delta is confined
     to the root's own lineage, so it has constant size however many roots
     surround it.  All schedule levels exist from the base prefix, so the
     whole stream is level-stable. *)
  let open History.Builder in
  let b = create () in
  let sp = schedule b ~conflict:Conflict.Same_item "SP" in
  let sa = schedule b ~conflict:Conflict.Rw "SA" in
  let rs = Array.init roots (fun j -> root b ~sched:sp (Label.v (Fmt.str "T%d" j))) in
  let txs = ref [] and ws = ref [] in
  let add j =
    let item = Fmt.str "x%d" j in
    let a = tx b ~parent:rs.(j) ~sched:sa (Label.v ~args:[ item ] "add") in
    let w = leaf b ~parent:a (Label.v ~args:[ item ] "w") in
    txs := a :: !txs;
    ws := w :: !ws
  in
  for j = 0 to roots - 1 do add j done;
  for i = 0 to k - 1 do add (i mod roots) done;
  log b ~sched:sp (List.rev !txs);
  log b ~sched:sa (List.rev !ws);
  seal b

let e17 () =
  section "e17" "O(delta) appends: the order kernel on open-transaction streams";
  Fmt.pr
    "  Each append opens a subtransaction under an existing root (levels@.\
    \  stable, structure not); baseline is the pre-kernel cost of the same@.\
    \  stream: incremental closure + one full reduction per append.@.";
  let roots_max =
    match Sys.getenv_opt "REPRO_E17_ROOTS_MAX" with
    | Some s -> (
      match int_of_string_opt s with Some n when n > 0 -> n | _ -> max_int)
    | None -> max_int
  in
  let rounds = 4 in
  let sizes = List.filter (fun r -> r <= roots_max) [ 16; 32; 64; 128; 256 ] in
  Fmt.pr "  %-10s %6s %8s %12s %12s %8s %7s %5s %10s@." "roots" "nodes"
    "appends" "monitor-s" "reduce-s" "speedup" "kernel" "full" "mw/append";
  let headline = ref 0.0 in
  let rows =
    List.map
      (fun roots ->
        let appends = rounds * roots in
        let prefix = e17_prefix ~roots in
        (* Kernel stream: per-append wall and minor-word deltas, measured
           around the append alone (prefix assembly is the workload
           generator's cost, not the monitor's). *)
        let metrics = Metrics.create () in
        let m = Engine.create ~obs:(Repro_obs.Sink.v ~metrics ()) () in
        let mon_wall = ref 0.0 in
        let minor = Array.make (appends + 1) 0.0 in
        let rejected = ref 0 in
        for k = 0 to appends do
          let p = prefix k in
          let w0 = Gc.minor_words () in
          let t0 = now_wall () in
          let v = Engine.extend m p in
          mon_wall := !mon_wall +. (now_wall () -. t0);
          minor.(k) <- Gc.minor_words () -. w0;
          match v with
          | Engine.Accepted _ -> ()
          | Engine.Rejected _ -> incr rejected
        done;
        if !rejected > 0 then
          Fmt.pr "  %-10d [UNEXPECTED REJECTS: %d]@." roots !rejected;
        (* Steady state: the last-quarter window averages appends whose
           round index — hence delta size — matches across row sizes. *)
        let q = max 1 (appends / 4) in
        let mw = ref 0.0 in
        for k = appends - q + 1 to appends do
          mw := !mw +. minor.(k)
        done;
        let mw = !mw /. float_of_int q in
        let stats = Engine.stats m in
        let by_path p =
          Metrics.counter_value metrics
            ~labels:(Repro_obs.Labels.v [ ("path", p) ])
            "monitor.append"
        in
        (* Baseline: same closure deltas, full reduction per append. *)
        let inc = Repro_core.Observed.inc_create () in
        let base_wall = ref 0.0 in
        let prev = ref None in
        let n_old = ref 0 in
        for k = 0 to appends do
          let p = prefix k in
          let t0 = now_wall () in
          let rel =
            match !prev with
            | None -> Repro_core.Observed.compute p
            | Some pr ->
              fst (Repro_core.Observed.extend ~inc ~prev:pr ~n_old:!n_old p)
          in
          ignore (Repro_core.Reduction.reduce ~rel p);
          base_wall := !base_wall +. (now_wall () -. t0);
          prev := Some rel;
          n_old := History.n_nodes p
        done;
        let nodes = History.n_nodes (prefix appends) in
        let speedup = if !mon_wall > 0.0 then !base_wall /. !mon_wall else 0.0 in
        headline := speedup;
        Fmt.pr "  %-10d %6d %8d %12.4f %12.4f %7.1fx %7d %5d %10.0f@." roots
          nodes (appends + 1) !mon_wall !base_wall speedup
          stats.Engine.kernel_hits (by_path "full") mw;
        ( Fmt.str "open-stream-roots-%d" roots,
          Json.Obj
            [
              ("roots", Json.Int roots);
              ("nodes", Json.Int nodes);
              ("appends", Json.Int (appends + 1));
              ("monitor_wall_s", Json.Float !mon_wall);
              ("full_reduce_wall_s", Json.Float !base_wall);
              ("speedup", Json.Float speedup);
              ("kernel_hits", Json.Int stats.Engine.kernel_hits);
              ("full_hits", Json.Int (by_path "full"));
              ("minor_words_per_append", Json.Float mw);
            ] ))
      sizes
  in
  Fmt.pr "  headline (largest stream): %.1fx@." !headline;
  record_json "e17"
    (Json.Obj [ ("speedup", Json.Float !headline); ("rows", Json.Obj rows) ])

(* ------------------------------------------------------------------ *)
(* E18: bounded-memory multi-stream serving (compserve)                *)
(* ------------------------------------------------------------------ *)

module Server = Repro_runtime.Server

(* The serving claims: a sharded server sustains many concurrent
   certification streams with per-stream append latency close to the
   single-stream monitor path, and with a truncation window each stream's
   dense resident state stays flat however long the stream grows.  The
   workload is an accept-only open-stream shape (root j's subtransaction
   writes only its own item, so every prefix certifies and the session
   sits in the truncation steady state), streamed through the real
   protocol layer: per-root chunks, parsed and certified by
   {!Repro_runtime.Server} on its worker shards. *)

(* 9 nodes per root (4 operations of 2 nodes under each): one chunk is a
   realistic append with enough certification work to measure, while
   keeping the full experiment cheap enough for CI. *)
let e18_ops_per_root = 4

let e18_history ~roots ~tag =
  let open History.Builder in
  let b = create () in
  let sp = schedule b ~conflict:Conflict.Same_item "SP" in
  let sa = schedule b ~conflict:Conflict.Rw "SA" in
  let txs = ref [] and ws = ref [] in
  for j = 0 to roots - 1 do
    let r = root b ~sched:sp (Label.v (Fmt.str "T%d_%d" tag j)) in
    for o = 0 to e18_ops_per_root - 1 do
      let item = Fmt.str "x%d_%d_%d" tag j o in
      let a = tx b ~parent:r ~sched:sa (Label.v ~args:[ item ] "add") in
      let w = leaf b ~parent:a (Label.v ~args:[ item ] "w") in
      txs := a :: !txs;
      ws := w :: !ws
    done
  done;
  log b ~sched:sp (List.rev !txs);
  log b ~sched:sa (List.rev !ws);
  seal b

let e18_barrier n =
  let mu = Mutex.create () and cv = Condition.create () in
  let left = ref n in
  let hit () =
    Mutex.lock mu;
    decr left;
    if !left = 0 then Condition.signal cv;
    Mutex.unlock mu
  in
  let wait () =
    Mutex.lock mu;
    while !left > 0 do
      Condition.wait cv mu
    done;
    Mutex.unlock mu
  in
  (hit, wait)

let e18_float = function
  | Some (Json.Int n) -> float_of_int n
  | Some (Json.Float f) -> f
  | _ -> nan

let e18 () =
  section "e18"
    "Bounded-memory serving: concurrent streams through compserve's engine";
  Fmt.pr
    "  Each stream appends per-root chunks through the server protocol;@.\
    \  window 36 nodes, streams run to 4x past the window.  Gates: dense@.\
    \  resident words flat after saturation, p99 append within 1.5x of@.\
    \  a dedicated single-stream session at equal residency, zero@.\
    \  spurious verdicts.@.";
  let streams_max =
    match Sys.getenv_opt "REPRO_E18_STREAMS_MAX" with
    | Some s -> (
      match int_of_string_opt s with Some n when n > 0 -> n | _ -> max_int)
    | None -> max_int
  in
  let sizes = List.filter (fun s -> s <= streams_max) [ 1; 8; 64; 512 ] in
  let roots = 16 and window = 36 in
  (* 9 nodes per append: the window saturates after 4 roots and the full
     stream is 4x past it — the regime the flatness gate watches. *)
  let chunks_of h =
    let { Server.Chunks.preamble; chunks } = Server.Chunks.of_history h in
    (preamble, Array.of_list chunks)
  in
  (* Reference verdicts for parity: the plain unwindowed monitor on the
     same prefix chain (identical for every stream up to item renaming). *)
  let parity_ref =
    let h = e18_history ~roots ~tag:0 in
    let m = Engine.create () in
    Array.init roots (fun k ->
        match
          Engine.extend m (History.prefix_by_roots h (k + 1))
        with
        | Engine.Accepted _ -> true
        | Engine.Rejected _ -> false)
  in
  (* Context baseline: the bare monitor path — parse + Engine.extend,
     no server at all — over as many sequential single sessions as the
     largest row has streams, through the same histogram buckets.  Not a
     gate (a one-core box taxes the cross-domain path with scheduler
     tails the inline path never pays); the gated ratio below compares
     server rows against the server's own single-stream row instead. *)
  let baseline_streams = List.fold_left max 8 sizes in
  let baseline_p99 =
    let trial () =
      Gc.compact ();
      let hm = Metrics.create () in
      for rep = 0 to baseline_streams - 1 do
        let preamble, chunks = chunks_of (e18_history ~roots ~tag:rep) in
        let m =
          Engine.create
            ~obs:(Repro_obs.Sink.v ~recorder:(Repro_obs.Recorder.create ()) ())
            ~window ()
        in
        let buf = Buffer.create 256 in
        Array.iteri
          (fun k c ->
            let body = if k = 0 then preamble ^ c else c in
            let t0 = now_wall () in
            Buffer.add_string buf body;
            let h = Repro_histlang.Syntax.parse (Buffer.contents buf) in
            ignore (Engine.extend m h);
            Metrics.observe hm "base.append_wall_s" (now_wall () -. t0))
          chunks
      done;
      match Metrics.summary hm "base.append_wall_s" with
      | Some s -> s.Metrics.p99
      | None -> nan
    in
    (* Best of three: scheduler preemptions own an unrepeatable share of
       any single trial's tail; the minimum estimates the path's own. *)
    List.fold_left (fun acc _ -> Float.min acc (trial ())) infinity [ 1; 2; 3 ]
  in
  (* Burst pass: all streams' appends for one chunk index submitted at
     once, a barrier per phase — the throughput regime.  Also takes the
     memory checkpoints (between phases, so they never overlap an
     append) and the final truncation/parity tallies. *)
  let burst_pass streams =
    Gc.compact ();
    let srv = Server.create ~window () in
    let stream_data =
      Array.init streams (fun i -> chunks_of (e18_history ~roots ~tag:i))
    in
    let sid i = Fmt.str "s%d" i in
    let hit, wait = e18_barrier streams in
    Array.iteri
      (fun i _ ->
        Server.submit srv
          (Server.Wire.Open { stream = sid i; window = None })
          (fun _ -> hit ()))
      stream_data;
    wait ();
    let bad = Atomic.make 0 in
    let serve_wall = ref 0.0 in
    let mem_means = ref [] in
    for k = 0 to roots - 1 do
      let hit, wait = e18_barrier streams in
      let expect = parity_ref.(k) in
      let t0 = now_wall () in
      Array.iteri
        (fun i (preamble, chunks) ->
          let body = if k = 0 then preamble ^ chunks.(k) else chunks.(k) in
          Server.submit srv
            (Server.Wire.Append { stream = sid i; body; ctx = None })
            (function
              | Server.Wire.Verdict_r { accepted; _ } when accepted = expect
                ->
                hit ()
              | _ ->
                Atomic.incr bad;
                hit ()))
        stream_data;
      wait ();
      serve_wall := !serve_wall +. (now_wall () -. t0);
      (* Checkpoint at the same phase of every truncation cycle (one
         fold per 4 appends), so samples compare like with like; a
         bounded sample is enough — the streams are symmetric. *)
      if (k + 1) mod 4 = 0 then begin
        let sample = min streams 8 in
        let total = ref 0.0 in
        for i = 0 to sample - 1 do
          match Server.request srv (Server.Wire.Explain (sid i)) with
          | Server.Wire.Json_r j ->
            let eng = Json.member "engine" j in
            let mem = Option.bind eng (Json.member "memory") in
            total :=
              !total
              +. e18_float
                   (Option.bind mem (Json.member "resident_estimate_words"))
          | _ -> total := nan
        done;
        mem_means := (!total /. float_of_int sample) :: !mem_means
      end
    done;
    let truncations =
      let acc = ref 0 in
      Array.iteri
        (fun i _ ->
          match Server.request srv (Server.Wire.Explain (sid i)) with
          | Server.Wire.Json_r j ->
            let eng = Json.member "engine" j in
            let ses = Option.bind eng (Json.member "session") in
            acc :=
              !acc
              + int_of_float
                  (e18_float (Option.bind ses (Json.member "truncations")))
          | _ -> ())
        stream_data;
      !acc
    in
    Server.drain srv;
    (!serve_wall, List.rev !mem_means, truncations, Atomic.get bad)
  in
  (* Latency pass: the same streams advanced round-robin with one
     request in flight — the per-append service regime a non-saturated
     client sees — timed client-side per request.  After the row's
     streams are fully fed, the same live server runs a dedicated
     sequence of single-stream sessions, timed identically: the gate's
     denominator, at the row's own residency.  The ratio row/dedicated
     then isolates what interleaving concurrent streams costs per
     append — heap size and host scheduling hit both numerator and
     denominator alike. *)
  let latency_pass streams =
    Gc.compact ();
    let srv = Server.create ~window () in
    let stream_data =
      Array.init streams (fun i -> chunks_of (e18_history ~roots ~tag:i))
    in
    let sid i = Fmt.str "s%d" i in
    let bad = ref 0 in
    Array.iteri
      (fun i _ ->
        ignore
          (Server.request srv (Server.Wire.Open { stream = sid i; window = None })))
      stream_data;
    let hm = Metrics.create () in
    for k = 0 to roots - 1 do
      let expect = parity_ref.(k) in
      Array.iteri
        (fun i (preamble, chunks) ->
          let body = if k = 0 then preamble ^ chunks.(k) else chunks.(k) in
          let t0 = now_wall () in
          let r =
            Server.request srv (Server.Wire.Append { stream = sid i; body; ctx = None })
          in
          Metrics.observe hm "row.append_wall_s" (now_wall () -. t0);
          match r with
          | Server.Wire.Verdict_r { accepted; _ } when accepted = expect -> ()
          | _ -> incr bad)
        stream_data
    done;
    let reps = max 4 (256 / roots) in
    for rep = 0 to reps - 1 do
      let sid = Fmt.str "q%d" rep in
      let preamble, chunks = chunks_of (e18_history ~roots ~tag:rep) in
      ignore
        (Server.request srv (Server.Wire.Open { stream = sid; window = None }));
      Array.iteri
        (fun k c ->
          let body = if k = 0 then preamble ^ c else c in
          let t0 = now_wall () in
          ignore (Server.request srv (Server.Wire.Append { stream = sid; body; ctx = None }));
          Metrics.observe hm "one.append_wall_s" (now_wall () -. t0))
        chunks;
      ignore (Server.request srv (Server.Wire.Close sid))
    done;
    Server.drain srv;
    let p99 name =
      match Metrics.summary hm name with
      | Some s -> s.Metrics.p99
      | None -> nan
    in
    (p99 "row.append_wall_s", p99 "one.append_wall_s", !bad)
  in
  Fmt.pr "  bare monitor path p99 append (context): %.3fms@."
    (baseline_p99 *. 1e3);
  Fmt.pr "  %-10s %8s %10s %12s %9s %9s %9s %7s %7s@." "streams" "appends"
    "wall-s" "appends/s" "p99-ms" "p99/one" "mem-ratio" "truncs" "rejects";
  let rows =
    List.map
      (fun streams ->
        let serve_wall, mem_means, truncations, bad_burst =
          burst_pass streams
        in
        (* Enough latency passes that small rows still estimate their
           tail from a few hundred observations.  The gated ratio is
           paired — computed within one pass, where numerator and
           denominator share a server instance, heap and moment in time —
           and the best pass is kept: cross-pass drift (GC phase, host
           scheduling) cancels instead of landing on one side. *)
        let passes = max 3 (min 16 (256 / (streams * roots))) in
        let p99 = ref infinity
        and one_p99 = ref infinity
        and vs_one = ref infinity
        and bad_lat = ref 0 in
        for _ = 1 to passes do
          let p, o, b = latency_pass streams in
          p99 := Float.min !p99 p;
          one_p99 := Float.min !one_p99 o;
          if o > 0.0 then vs_one := Float.min !vs_one (p /. o);
          bad_lat := !bad_lat + b
        done;
        let p99 = !p99 and one_p99 = !one_p99 in
        let vs_one = if Float.is_finite !vs_one then !vs_one else nan in
        let bad = bad_burst + !bad_lat in
        let mem_ratio =
          match mem_means with
          | [] -> nan
          | m :: ms ->
            let mx = List.fold_left Float.max m ms in
            let mn = List.fold_left Float.min m ms in
            if mn > 0.0 then mx /. mn else nan
        in
        let appends = streams * roots in
        let rate =
          if serve_wall > 0.0 then float_of_int appends /. serve_wall else 0.0
        in
        Fmt.pr "  %-10d %8d %10.4f %12.0f %9.3f %9.2f %9.3f %7d %7d@." streams
          appends serve_wall rate (p99 *. 1e3) vs_one mem_ratio truncations
          bad;
        ( Fmt.str "streams-%d" streams,
          Json.Obj
            [
              ("streams", Json.Int streams);
              ("roots_per_stream", Json.Int roots);
              ("window", Json.Int window);
              ("appends", Json.Int appends);
              ("serve_wall_s", Json.Float serve_wall);
              ("appends_per_s", Json.Float rate);
              ("p99_append_s", Json.Float p99);
              ("single_path_p99_append_s", Json.Float one_p99);
              ("p99_vs_single_stream", Json.Float vs_one);
              ( "resident_words_per_stream",
                Json.List (List.map (fun m -> Json.Float m) mem_means) );
              ("mem_ratio", Json.Float mem_ratio);
              ("truncations", Json.Int truncations);
              ("verdict_mismatches", Json.Int bad);
            ] ))
      sizes
  in
  record_json "e18"
    (Json.Obj
       [
         ("baseline_p99_append_s", Json.Float baseline_p99);
         ("rows", Json.Obj rows);
       ])

(* ------------------------------------------------------------------ *)
(* E19: tracing overhead on the serving path                           *)
(* ------------------------------------------------------------------ *)

module Span = Repro_obs.Span

(* The observability claim: the span layer is free when off (the null
   collector costs one load and branch per instrumentation point) and
   cheap when fully on (head-sampling at rate 1.0 — every request traced:
   decode-less in-process submits still mint queue-wait, engine-append
   and encode spans).  The workload is E18's bounded-memory serving shape
   at one fixed concurrency, driven round-robin with one request in
   flight — the per-append service-latency regime, where a per-request
   overhead is most visible. *)
let e19 () =
  section "e19" "Tracing overhead: request spans on the E18 serving workload";
  Fmt.pr
    "  E18's serving shape (window 36, 16 roots/stream), one request in@.\
    \  flight, null-span server vs every request traced at rate 1.0.@.\
    \  Gates: null within the e19_ci.json wall baseline, traced p99@.\
    \  within 1.25x of null.@.";
  let streams =
    match Sys.getenv_opt "REPRO_E19_STREAMS" with
    | Some s -> (
      match int_of_string_opt s with Some n when n > 0 -> n | _ -> 8)
    | None -> 8
  in
  let roots = 16 and window = 36 in
  let chunks_of h =
    let { Server.Chunks.preamble; chunks } = Server.Chunks.of_history h in
    (preamble, Array.of_list chunks)
  in
  let stream_data =
    Array.init streams (fun i -> chunks_of (e18_history ~roots ~tag:i))
  in
  let sid i = Fmt.str "s%d" i in
  (* One pass: open, feed every stream round-robin timing each append
     client-side, drain.  [traced] adds a span context to every request —
     trace ids minted from a client-side collector, exactly the drive
     client's wiring. *)
  let pass ~traced =
    Gc.compact ();
    let srv =
      if traced then Server.create ~window ~span_rate:1.0 ()
      else Server.create ~window ()
    in
    let client = if traced then Span.create () else Span.null in
    Array.iteri
      (fun i _ ->
        ignore
          (Server.request srv
             (Server.Wire.Open { stream = sid i; window = None })))
      stream_data;
    let hm = Metrics.create () in
    let t_start = now_wall () in
    for k = 0 to roots - 1 do
      Array.iteri
        (fun i (preamble, chunks) ->
          let body = if k = 0 then preamble ^ chunks.(k) else chunks.(k) in
          let ctx =
            if traced then
              Some { Server.Wire.trace = Span.fresh_trace client; parent = 0 }
            else None
          in
          let t0 = now_wall () in
          ignore
            (Server.request srv (Server.Wire.Append { stream = sid i; body; ctx }));
          Metrics.observe hm "e19.append_wall_s" (now_wall () -. t0))
        stream_data
    done;
    let wall = now_wall () -. t_start in
    (* Snapshot after the drain: a request's encode span is recorded
       after its response continuation fires, so quiescence needs the
       workers joined, not just the responses delivered. *)
    Server.drain srv;
    let spans_recorded =
      if traced then Span.length (Server.spans_snapshot srv) else 0
    in
    let p99 =
      match Metrics.summary hm "e19.append_wall_s" with
      | Some s -> s.Metrics.p99
      | None -> nan
    in
    (p99, wall, spans_recorded)
  in
  (* Best of three per config: scheduler preemptions own an unrepeatable
     share of any single pass's tail. *)
  let best ~traced =
    let p99 = ref infinity and wall = ref infinity and spans = ref 0 in
    for _ = 1 to 3 do
      let p, w, s = pass ~traced in
      p99 := Float.min !p99 p;
      wall := Float.min !wall w;
      spans := max !spans s
    done;
    (!p99, !wall, !spans)
  in
  let null_p99, null_wall, _ = best ~traced:false in
  let traced_p99, traced_wall, traced_spans = best ~traced:true in
  let ratio = if null_p99 > 0.0 then traced_p99 /. null_p99 else nan in
  let appends = streams * roots in
  Fmt.pr "  %-8s %8s %10s %9s %9s@." "config" "appends" "wall-s" "p99-ms"
    "spans";
  Fmt.pr "  %-8s %8d %10.4f %9.3f %9d@." "null" appends null_wall
    (null_p99 *. 1e3) 0;
  Fmt.pr "  %-8s %8d %10.4f %9.3f %9d@." "traced" appends traced_wall
    (traced_p99 *. 1e3) traced_spans;
  Fmt.pr "  traced/null p99 ratio: %.3f@." ratio;
  let row ~p99 ~wall ~spans =
    Json.Obj
      [
        ("streams", Json.Int streams);
        ("roots_per_stream", Json.Int roots);
        ("window", Json.Int window);
        ("appends", Json.Int appends);
        ("serve_wall_s", Json.Float wall);
        ("p99_append_s", Json.Float p99);
        ("spans_recorded", Json.Int spans);
      ]
  in
  record_json "e19"
    (Json.Obj
       [
         ("traced_vs_null_p99", Json.Float ratio);
         ( "rows",
           Json.Obj
             [
               ("null", row ~p99:null_p99 ~wall:null_wall ~spans:0);
               ( "traced",
                 row ~p99:traced_p99 ~wall:traced_wall ~spans:traced_spans );
             ] );
       ])

(* ------------------------------------------------------------------ *)
(* E20: semantic acceptance — ADT conflict specs vs page-level rw      *)
(* ------------------------------------------------------------------ *)

(* The semantic-commutativity claims, measured.  At a matched topology —
   same forest, same labels, same intra-transaction and root input
   orders, only the operation-level spec swapped and the logs redrawn
   under it ({!Clone.with_conflicts} composed with {!Gen.populate}) —
   replacing the page-level [rw] spec with the ADT family the operations
   actually belong to (counter updates commute; set operations conflict
   only on a shared element; escrow reservations only on overlapping
   ranges) leaves fewer conflicts for the schedules to serialize, so a
   larger fraction of random executions certifies under Comp-C.  The
   same compiled spec drives {!Repro_runtime.Lock}, so the simulator's
   semantic 2PL admits more concurrency than the page-level reading of
   the identical workload.  The compiled-vs-interpreted parity sweep
   runs inline so the JSON carries the equivalence evidence next to the
   numbers that depend on it. *)

let e20_families =
  [ ("counter", Adt.Counter); ("set", Adt.Set); ("escrow", Adt.Escrow) ]

(* Operation mix per family over a small item pool: mostly commuting
   under the family's algebra, every one of them a writer under [rw]. *)
let e20_leaf rng fam it =
  match fam with
  | Adt.Counter ->
    Label.v ~args:[ it ]
      (match Prng.int rng 4 with 0 | 1 -> "inc" | _ -> "get")
  | Adt.Set ->
    let e = Fmt.str "e%d" (Prng.int rng 6) in
    Label.v ~args:[ it; e ]
      (match Prng.int rng 4 with 0 -> "contains" | 1 -> "remove" | _ -> "add")
  | Adt.Queue | Adt.Escrow | Adt.Custom _ ->
    let lo = Prng.int rng 40 in
    let hi = lo + 1 + Prng.int rng 5 in
    Label.v ~args:[ it; string_of_int lo; string_of_int hi ] "escrow"

(* One store component under semantic 2PL with open nesting; each root
   submits a handful of family operations on a two-item pool.  The same
   generator runs against the ADT spec and against [rw]; only the lock
   modes differ. *)
let e20_sim ~spec ~fam ~seed =
  let topology = { Template.components = [| ("store", spec) |] } in
  let gen rng ~client ~seq =
    ignore client;
    ignore seq;
    let op () =
      let pool = match fam with Adt.Counter -> 6 | _ -> 2 in
      let it = Fmt.str "x%d" (Prng.int rng pool) in
      (it, e20_leaf rng fam it)
    in
    (* Sequential dispatch in item order: locks are acquired in a
       canonical order, so the run is deadlock-free and the protocols
       differ in blocking only — the semantic-vs-page comparison is not
       confounded by timeout-abort churn. *)
    let ops =
      List.sort compare (List.init (2 + Prng.int rng 2) (fun _ -> op ()))
    in
    Template.call ~sequential:true ~component:0 (Label.v "txn")
      (List.map (fun (_, l) -> Template.leaf l) ops)
  in
  let params =
    {
      Sim.default_params with
      Sim.protocol = Sim.Locking { closed = false };
      clients = 8;
      txs_per_client = 16;
      think = 0.0;
      seed;
    }
  in
  let stats = Sim.run params topology ~gen in
  let thr =
    if stats.Sim.makespan > 0.0 then
      float_of_int stats.Sim.committed /. stats.Sim.makespan
    else 0.0
  in
  (thr, stats)

(* Inline parity: the dense matrix probe must agree with the interpreted
   algebra on every family, including argument-sensitive and range rules
   and unknown operation names (the qcheck suite proves the same property;
   this records the evidence in the bench document). *)
let e20_parity cases =
  let rng = Prng.create ~seed:20 in
  let fams =
    [
      Adt.Counter; Adt.Queue; Adt.Set; Adt.Escrow;
      Adt.Custom
        {
          Adt.classes = [ ("m", [ "f"; "g" ]); ("n", [ "h" ]) ];
          rules =
            [ ("m", "m", Adt.Args); ("m", "n", Adt.Item); ("n", "n", Adt.Range) ];
        };
    ]
  in
  let names =
    [
      "inc"; "dec"; "get"; "enq"; "deq"; "add"; "remove"; "contains";
      "escrow"; "put"; "take"; "f"; "g"; "h"; "zzz";
    ]
  in
  let label () =
    let it = Fmt.str "x%d" (Prng.int rng 3) in
    let args =
      match Prng.int rng 4 with
      | 0 -> []
      | 1 -> [ it ]
      | 2 -> [ it; Fmt.str "e%d" (Prng.int rng 3) ]
      | _ ->
        [ it; string_of_int (Prng.int rng 10); string_of_int (Prng.int rng 10) ]
    in
    Label.v ~args (Prng.pick rng names)
  in
  let bad = ref 0 in
  for _ = 1 to cases do
    let f = Prng.pick rng fams in
    let c = Adt.compile f in
    let a = label () and b = label () in
    if Adt.probe c a b <> Adt.eval f a b then incr bad
  done;
  !bad

(* Streaming acceptance horizon: feed the history to the incremental
   monitor one root at a time and count the accepted appends before the
   first rejection.  Whole-history acceptance degenerates to zero well
   below 16 roots (every random batch interleaving eventually embeds a
   cycle), while the horizon keeps discriminating across the whole
   16..256 range: a sparser conflict spec leaves fewer obligations to
   contradict, so the certified prefix runs deeper. *)
(* Each family's operation mix stresses where its algebra is sparser
   than the page-level reading.  [rw] already commutes bumper pairs
   ([inc]/[dec]), so the counter family's edge is its reads — [get] is
   unrecognized by [rw] and falls to the writer default the Validate
   lint warns about — while set and escrow win on element-disjoint and
   range-disjoint updates, so their mixes are write-heavy. *)
let e20_profile = function
  | Adt.Counter -> { Gen.default_profile with Gen.read_ratio = 0.7 }
  | _ -> { Gen.default_profile with Gen.read_ratio = 0.15 }

let e20_horizon h ~roots =
  let m = Engine.create () in
  let rec go k =
    if k > roots then roots
    else
      match Engine.extend m (History.prefix_by_roots h k) with
      | Engine.Accepted _ -> go (k + 1)
      | Engine.Rejected _ -> k - 1
  in
  go 1

let e20 () =
  section "e20" "Semantic acceptance: ADT conflict specs vs page-level rw";
  Fmt.pr
    "  Matched topologies (2-branch joins; only the bottom spec differs,@.\
    \  logs redrawn under each): roots certified by the streaming monitor@.\
    \  before the first rejection (fraction of the stream), then@.\
    \  open-nesting 2PL throughput under the same two specs.@.";
  let roots_max =
    match Sys.getenv_opt "REPRO_E20_ROOTS_MAX" with
    | Some s -> (
      match int_of_string_opt s with Some n when n > 0 -> n | _ -> max_int)
    | None -> max_int
  in
  let seeds =
    match Sys.getenv_opt "REPRO_E20_SEEDS" with
    | Some s -> (
      match int_of_string_opt s with Some n when n > 0 -> n | _ -> 20)
    | None -> 20
  in
  let sizes = List.filter (fun r -> r <= roots_max) [ 16; 32; 64; 128; 256 ] in
  let parity_cases = 500 in
  let mismatches = e20_parity parity_cases in
  Fmt.pr "  compiled-vs-interpreted parity: %d/%d cases agree@."
    (parity_cases - mismatches) parity_cases;
  Fmt.pr "  %-8s %6s %6s %12s %12s %10s@." "family" "roots" "seeds"
    "adt-horizon" "rw-horizon" "wall-s";
  let rows =
    List.concat_map
      (fun (fname, fam) ->
        List.map
          (fun roots ->
            let t0 = now_wall () in
            let adt_sum = ref 0 and rw_sum = ref 0 in
            for seed = 1 to seeds do
              let rng = Prng.create ~seed:((seed * 8191) + roots) in
              let base =
                Gen.join ~profile:(e20_profile fam) rng ~branches:2 ~roots
                  ~conflict:(Conflict.Adt fam)
              in
              (* Paired draw: phase two runs from the same seed on both
                 variants.  The service level's obligations are identical
                 (its spec is unchanged), so its log comes out the same
                 and the two histories differ exactly where the bottom
                 spec does — without the pairing, the service level's
                 independent redraw swamps the bottom-spec signal. *)
              let log_seed = (seed * 523) + roots in
              let adt_h = Gen.populate (Prng.create ~seed:log_seed) base in
              adt_sum := !adt_sum + e20_horizon adt_h ~roots;
              let to_rw sid =
                match (History.schedule base sid).History.conflict with
                | Conflict.Adt _ -> Some Conflict.Rw
                | _ -> None
              in
              let rw =
                Gen.populate
                  (Prng.create ~seed:log_seed)
                  (Clone.with_conflicts base ~conflicts:to_rw)
              in
              rw_sum := !rw_sum + e20_horizon rw ~roots
            done;
            let wall = now_wall () -. t0 in
            let rate k = float_of_int k /. float_of_int (seeds * roots) in
            Fmt.pr "  %-8s %6d %6d %12.2f %12.2f %10.4f@." fname roots seeds
              (rate !adt_sum) (rate !rw_sum) wall;
            ( Fmt.str "%s-roots-%d" fname roots,
              Json.Obj
                [
                  ("family", Json.String fname);
                  ("roots", Json.Int roots);
                  ("seeds", Json.Int seeds);
                  ("adt_accept_rate", Json.Float (rate !adt_sum));
                  ("rw_accept_rate", Json.Float (rate !rw_sum));
                  ("wall_s", Json.Float wall);
                ] ))
          sizes)
      e20_families
  in
  Fmt.pr "  %-8s %14s %14s %8s@." "family" "adt-commits/t" "rw-commits/t"
    "uplift";
  let sim_rows =
    List.map
      (fun (fname, fam) ->
        let avg spec =
          let reps = 3 in
          let sum = ref 0.0 and aborts = ref 0 in
          for seed = 1 to reps do
            let thr, stats = e20_sim ~spec ~fam ~seed in
            sum := !sum +. thr;
            aborts := !aborts + stats.Sim.aborts
          done;
          (!sum /. float_of_int reps, !aborts)
        in
        let adt_thr, adt_aborts = avg (Conflict.Adt fam) in
        let rw_thr, rw_aborts = avg Conflict.Rw in
        let uplift = if rw_thr > 0.0 then adt_thr /. rw_thr else nan in
        Fmt.pr "  %-8s %14.4f %14.4f %7.2fx@." fname adt_thr rw_thr uplift;
        ( fname,
          Json.Obj
            [
              ("adt_throughput", Json.Float adt_thr);
              ("rw_throughput", Json.Float rw_thr);
              ("uplift", Json.Float uplift);
              ("adt_aborts", Json.Int adt_aborts);
              ("rw_aborts", Json.Int rw_aborts);
            ] ))
      e20_families
  in
  record_json "e20"
    (Json.Obj
       [
         ( "parity",
           Json.Obj
             [
               ("cases", Json.Int parity_cases);
               ("mismatches", Json.Int mismatches);
             ] );
         ("rows", Json.Obj rows);
         ("sim", Json.Obj sim_rows);
       ])

(* ------------------------------------------------------------------ *)
(* E21: stream ingestion, gated on counts                              *)
(* ------------------------------------------------------------------ *)

(* The O(delta) ingestion claim: a [compserve] append parses its chunk
   alone and seals only its delta ([Syntax.Session] over
   [History.extend]), where the server used to re-parse and re-seal the
   stream's whole text.  Wall time on a shared host is too noisy to gate a
   slope, so the gate is on minor words per append, which are
   deterministic: the session's words at the deepest row may be at most a
   fixed multiple of its words at the shallowest (bench/baselines/
   e21_ci.json).  The stream has the serve-long shape: a two-level stack
   whose roots run 2 operations on items of a 64-item pool, each with an
   order line to the item's previous operation; every 7th append adds an
   operation to one of the 12 newest roots instead of a root.  The closed
   orders grow with the item chains, so the session's words still rise
   with depth: with the closed-order pairs each append adds, not with the
   text of the stream.

   The same histories also go through a windowed engine session (window
   64), which prices certification on that stream and counts how often
   its folds are undone: a restore recomputes the whole prefix's
   closure, so CI gates restores per append at the deepest row.  The
   session runs with a metrics registry, as in compserve, and its
   coverage says how [Observed.extend] found each append's new pairs:
   every history here comes from [Syntax.Session], so CI fails any row
   where one was found by walking every schedule instead of through the
   converse index. *)

let e21_chunks ~roots =
  let rng = Prng.create ~seed:21 in
  let next = ref 0 and root_ids = ref [||] and chunks = ref [] in
  let tail = Hashtbl.create 64 in
  let fresh () =
    let n = !next in
    incr next;
    n
  in
  let op b r item =
    let a = fresh () and get = Prng.chance rng 0.3 in
    Printf.bprintf b "tx n%d @ SA parent n%d %s(x%d)\n" a r (if get then "get" else "add") item;
    Printf.bprintf b "leaf n%d parent n%d r(x%d)\n" (fresh ()) a item;
    if not get then Printf.bprintf b "leaf n%d parent n%d w(x%d)\n" (fresh ()) a item;
    Option.iter (fun p -> Printf.bprintf b "order SP : n%d < n%d\n" p a) (Hashtbl.find_opt tail item);
    Hashtbl.replace tail item a
  in
  while Array.length !root_ids < roots do
    let b = Buffer.create 256 in
    let k = List.length !chunks and n_roots = Array.length !root_ids in
    if k = 0 then Buffer.add_string b "schedule SP conflict same-item\nschedule SA conflict rw\n";
    if k mod 7 = 6 && n_roots > 1 then
      op b !root_ids.(n_roots - 1 - Prng.int rng (min 12 n_roots)) (Prng.int rng 64)
    else begin
      let r = fresh () in
      Printf.bprintf b "root n%d @ SP T%d\n" r n_roots;
      root_ids := Array.append !root_ids [| r |];
      let items = Array.init 64 Fun.id in
      Prng.shuffle rng items;
      op b r items.(0);
      op b r items.(1)
    end;
    chunks := Buffer.contents b :: !chunks
  done;
  Array.of_list (List.rev !chunks)

let e21_median xs =
  let a = Array.of_list xs in
  Array.sort compare a;
  if a = [||] then nan else a.(Array.length a / 2)

let e21 () =
  section "e21" "O(delta) stream ingestion: chunk session vs whole-text re-parse";
  Fmt.pr
    "  Minor words and wall time per append over the deepest tenth of a@.\
    \  serve-long-shaped stream (medians).  CI gates the session's words@.\
    \  at 1024 roots against its words at 64 (bench/baselines/e21_ci.json).@.\
    \  The re-parse column is the server's former ingestion, sampled at@.\
    \  up to 11 appends.  Pairs counts the closed-order pairs an append@.\
    \  adds; they grow with the item chains (ROADMAP item 4), and the@.\
    \  session's words grow with them.  The engine columns feed each@.\
    \  session history to Engine.create ~window:64 (); CI gates its@.\
    \  restores per append at 1024 roots (at most 0.01) and its scans@.\
    \  (appends whose new pairs were found by walking every schedule@.\
    \  rather than through the converse index) at 0 on every row.@.";
  Fmt.pr "  %-6s %8s %9s %14s %11s %7s %14s %11s %12s %9s %8s %6s %6s %6s@." "roots"
    "appends" "text-KB" "session-words" "session-us" "pairs" "reparse-words"
    "reparse-us" "engine-words" "engine-us" "restores" "folds" "kernel" "scans";
  let measure f =
    let w0 = Gc.minor_words () in
    let t0 = now_wall () in
    let r = f () in
    let t = now_wall () -. t0 in
    (r, Gc.minor_words () -. w0, t *. 1e6)
  in
  let rows =
    List.map
      (fun roots ->
        let chunks = e21_chunks ~roots in
        let n = Array.length chunks in
        let deep i = 10 * (i + 1) >= 9 * n in
        let session = ref (Repro_histlang.Syntax.Session.empty ()) in
        let sw = ref [] and st = ref [] and sp = ref [] in
        let pairs h =
          List.fold_left
            (fun acc (s : History.schedule) ->
              acc
              + List.fold_left
                  (fun acc r -> acc + Repro_order.Rel.cardinal r)
                  0
                  History.[ s.weak_in; s.strong_in; s.weak_out; s.strong_out ])
            0 (History.schedules h)
        in
        Array.iteri
          (fun i chunk ->
            let before = Repro_histlang.Syntax.Session.history !session in
            let s, w, t =
              measure (fun () -> Repro_histlang.Syntax.Session.feed !session chunk)
            in
            session := s;
            if deep i then begin
              sw := w :: !sw;
              st := t :: !st;
              sp :=
                float_of_int
                  (pairs (Repro_histlang.Syntax.Session.history s) - pairs before)
                :: !sp
            end)
          chunks;
        let first_deep = ref n in
        Array.iteri (fun i _ -> if deep i && i < !first_deep then first_deep := i) chunks;
        let span = n - !first_deep in
        let samples = List.sort_uniq compare (List.init 11 (fun k -> !first_deep + (k * (span - 1) / 10))) in
        let text = Buffer.create 4096 in
        let rw = ref [] and rt = ref [] in
        Array.iteri
          (fun i chunk ->
            Buffer.add_string text chunk;
            if List.mem i samples then begin
              let src = Buffer.contents text in
              let _, w, t = measure (fun () -> Repro_histlang.Syntax.parse src) in
              rw := w :: !rw;
              rt := t :: !rt
            end)
          chunks;
        let h = Repro_histlang.Syntax.Session.history !session in
        if
          not
            (String.equal (Repro_histlang.Syntax.to_string h)
               (Repro_histlang.Syntax.to_string
                  (Repro_histlang.Syntax.parse (Buffer.contents text))))
        then
          failwith
            (Fmt.str "e21: at %d roots the session differs from the re-parse" roots);
        (* The same stream through a windowed engine session, as
           compserve's default window would certify it.  A second session
           pass feeds the engine, so its memo never warms the timed
           session above. *)
        let metrics = Metrics.create () in
        let eng = Engine.create ~obs:(Repro_obs.Sink.v ~metrics ()) ~window:64 () in
        let session = ref (Repro_histlang.Syntax.Session.empty ()) in
        let ew = ref [] and et = ref [] in
        Array.iteri
          (fun i chunk ->
            session := Repro_histlang.Syntax.Session.feed !session chunk;
            let h = Repro_histlang.Syntax.Session.history !session in
            let v, w, t = measure (fun () -> Engine.extend eng h) in
            (match v with
            | Engine.Accepted _ -> ()
            | Engine.Rejected _ ->
              failwith (Fmt.str "e21: the engine rejected append %d at %d roots" i roots));
            if deep i then begin
              ew := w :: !ew;
              et := t :: !et
            end)
          chunks;
        let restores = Engine.restores eng in
        let truncations = Engine.truncations eng in
        let kernel_hits = (Engine.stats eng).Engine.kernel_hits in
        let coverage = Repro_obs.Coverage.of_metrics metrics in
        let scans = List.assoc "engine.delta.via.scan" coverage in
        let indexed = List.assoc "engine.delta.via.index" coverage in
        let sw = e21_median !sw and st = e21_median !st and sp = e21_median !sp in
        let rw = e21_median !rw and rt = e21_median !rt in
        let ew = e21_median !ew and et = e21_median !et in
        Fmt.pr "  %-6d %8d %9.1f %14.0f %11.1f %7.0f %14.0f %11.1f %12.0f %9.1f %8d %6d %6d %6d@."
          roots n
          (float_of_int (Buffer.length text) /. 1024.0) sw st sp rw rt ew et restores
          truncations kernel_hits scans;
        ( roots,
          ( Fmt.str "roots-%d" roots,
            Json.Obj
              [
                ("roots", Json.Int roots);
                ("appends", Json.Int n);
                ("nodes", Json.Int (History.n_nodes h));
                ("text_bytes", Json.Int (Buffer.length text));
                ("session_words_per_append", Json.Float sw);
                ("session_us_per_append", Json.Float st);
                ("order_pairs_per_append", Json.Float sp);
                ("reparse_words_per_append", Json.Float rw);
                ("reparse_us_per_append", Json.Float rt);
                ("engine_words_per_append", Json.Float ew);
                ("engine_us_per_append", Json.Float et);
                ("engine_restores", Json.Int restores);
                ("engine_truncations", Json.Int truncations);
                ("engine_kernel_hits", Json.Int kernel_hits);
                ("engine_delta_scans", Json.Int scans);
                ("engine_delta_index", Json.Int indexed);
              ] ) ))
      [ 64; 256; 1024 ]
  in
  let words key roots =
    match List.assoc roots rows with
    | _, Json.Obj fields -> (
      match List.assoc key fields with Json.Float f -> f | _ -> nan)
    | _ -> nan
  in
  let ratio key = words key 1024 /. words key 64 in
  Fmt.pr "  words 1024/64 roots: session %.2fx, re-parse %.1fx@."
    (ratio "session_words_per_append") (ratio "reparse_words_per_append");
  record_json "e21"
    (Json.Obj
       [
         ("session_words_ratio", Json.Float (ratio "session_words_per_append"));
         ("reparse_words_ratio", Json.Float (ratio "reparse_words_per_append"));
         ("rows", Json.Obj (List.map snd rows));
       ])

(* ------------------------------------------------------------------ *)
(* Micro-benchmarks (bechamel)                                         *)
(* ------------------------------------------------------------------ *)

let micro () =
  section "micro" "Bechamel micro-benchmarks of the core algorithms";
  let open Bechamel in
  let open Toolkit in
  let rel200 =
    let rng = Prng.create ~seed:9 in
    let rec build acc n =
      if n = 0 then acc
      else build (Repro_order.Rel.add (Prng.int rng 200) (Prng.int rng 200) acc) (n - 1)
    in
    Repro_order.Rel.filter (fun a b -> a <> b) (build Repro_order.Rel.empty 400)
  in
  let stack3 = Gen.stack (Prng.create ~seed:10) ~levels:3 ~roots:6 in
  let general6 = Gen.general (Prng.create ~seed:10) ~schedules:6 ~roots:6 in
  let flat40 = Gen.flat (Prng.create ~seed:10) ~roots:40 in
  let text = Repro_histlang.Syntax.to_string stack3 in
  let tests =
    Test.make_grouped ~name:"repro"
      [
        Test.make ~name:"rel.closure-200"
          (Staged.stage (fun () -> Repro_order.Rel.transitive_closure rel200));
        Test.make ~name:"observed.stack3"
          (Staged.stage (fun () -> Repro_core.Observed.compute stack3));
        Test.make ~name:"compc.stack3" (Staged.stage (fun () -> Compc.check stack3));
        Test.make ~name:"compc.general6" (Staged.stage (fun () -> Compc.check general6));
        Test.make ~name:"compc.flat40" (Staged.stage (fun () -> Compc.check flat40));
        Test.make ~name:"histlang.parse"
          (Staged.stage (fun () -> Repro_histlang.Syntax.parse text));
        Test.make ~name:"validate.stack3" (Staged.stage (fun () -> Validate.check stack3));
      ]
  in
  let cfg = Benchmark.cfg ~limit:2000 ~quota:(Time.second 0.5) ~kde:None () in
  let raw = Benchmark.all cfg Instance.[ monotonic_clock ] tests in
  let ols = Analyze.ols ~bootstrap:0 ~r_square:true ~predictors:[| Measure.run |] in
  let results = Analyze.all ols Instance.monotonic_clock raw in
  let rows = Hashtbl.fold (fun name est acc -> (name, est) :: acc) results [] in
  let json_rows = ref [] in
  List.iter
    (fun (name, est) ->
      match Analyze.OLS.estimates est with
      | Some [ t ] ->
        Fmt.pr "  %-28s %12.0f ns/run@." name t;
        json_rows := (name, Json.Float t) :: !json_rows
      | _ -> Fmt.pr "  %-28s (no estimate)@." name)
    (List.sort compare rows);
  record_json "micro_ns_per_run" (Json.Obj (List.rev !json_rows))

(* ------------------------------------------------------------------ *)

let all =
  [
    ("e1", e1); ("e2", e2); ("e3", e3); ("e4", e4); ("e5", e5); ("e6", e6);
    ("e7", e7); ("e8", e8); ("e9", e9); ("e10", e10); ("e11", e11);
    ("e12", e12); ("e13", e13); ("e14", e14); ("e15", e15); ("e16", e16);
    ("e17", e17); ("e18", e18); ("e19", e19); ("e20", e20); ("e21", e21);
    ("perf", perf);
    ("micro", micro);
  ]

let () =
  let requested =
    match Array.to_list Sys.argv with
    | _ :: (_ :: _ as names) -> names
    | _ -> List.map fst all
  in
  List.iter
    (fun name ->
      match List.assoc_opt name all with
      | Some f -> f ()
      | None ->
        Fmt.epr "unknown experiment %S (known: %a)@." name
          Fmt.(list ~sep:comma string)
          (List.map fst all))
    requested;
  write_bench_json ()
