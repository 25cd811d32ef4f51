open Repro_model
open Repro_workload
module Metrics = Repro_obs.Metrics
module Recorder = Repro_obs.Recorder
module Labels = Repro_obs.Labels
module Span = Repro_obs.Span

type protocol = Serial | Locking of { closed : bool } | Certify

let protocol_name = function
  | Serial -> "serial"
  | Locking { closed = true } -> "closed"
  | Locking { closed = false } -> "open"
  | Certify -> "certify"

(* Span timestamps run on simulated time: 1 simulated time unit renders
   as 1 ms, a readable scale in Perfetto. *)
let sim_s t = t /. 1000.0

type params = {
  protocol : protocol;
  clients : int;
  txs_per_client : int;
  mean_service : float;
  think : float;
  lock_timeout : float;
  backoff : float;
  dispatch_delay : float;
  max_attempts : int;
  seed : int;
  certify_full_recheck : bool;
}

let default_params =
  {
    protocol = Serial;
    clients = 4;
    txs_per_client = 5;
    mean_service = 1.0;
    think = 0.0;
    lock_timeout = 25.0;
    backoff = 4.0;
    dispatch_delay = 0.1;
    max_attempts = 40;
    seed = 1;
    certify_full_recheck = false;
  }

type stats = {
  committed : int;
  aborts : int;
  given_up : int;
  lock_waits : int;
  makespan : float;
  mean_latency : float;
  history : History.t;
}

(* One attempt at executing a logical transaction.  [done_ops] records, for
   every completed non-root node, its completion time, the component that
   scheduled it (its parent's component) and its reversed template path. *)
type attempt = {
  aid : int;
  client : int;
  seq : int;
  attempt_no : int;
  tmpl : Template.t;
  store_tx : Repro_storage.Store.txid;
  first_submitted : float;
  mutable alive : bool;
  mutable done_ops : (float * int * int list) list;
  insts : (int, unit) Hashtbl.t;
      (* transaction-instance ids of this attempt (lock owners) *)
}

type world = {
  p : params;
  topo : Template.topology;
  gen : Prng.t -> client:int -> seq:int -> Template.t;
  locks : Lock.t array;
  store : Repro_storage.Store.t;
  rng : Prng.t;
  mutable now : float;
  mutable events : (float * int * (unit -> unit)) list;
  mutable eseq : int;
  waiters : (unit -> unit) list ref array;
  mutable committed : attempt list; (* commit order, newest first *)
  mutable next_aid : int;
  mutable next_inst : int;
  inst_parent : (int, int) Hashtbl.t; (* instance -> parent instance *)
  mutable aborts : int;
  mutable given_up : int;
  mutable lock_waits : int;
  mutable latencies : float list;
  mutable last_commit : float;
  (* telemetry (both default to the disabled null instances) *)
  session : Repro_core.Engine.t;
      (* Certify protocol: the incremental certification session over the
         committed prefix; idle under the other protocols. *)
  spans : Span.t;
  traces : int array; (* client -> its trace id, 0 when not tracing *)
  metrics : Metrics.t;
  recorder : Recorder.t;
  wait_hist : string; (* per-protocol histogram names, precomputed *)
  hold_hist : string;
  mutable on_release :
    (owner:int -> label:Label.t -> since:float -> unit) option;
}

let at w time fn =
  w.eseq <- w.eseq + 1;
  let ev = (time, w.eseq, fn) in
  let rec ins = function
    | [] -> [ ev ]
    | ((t', _, _) as hd) :: tl -> if time < t' then ev :: hd :: tl else hd :: ins tl
  in
  w.events <- ins w.events

let service_time w = w.p.mean_service *. (0.5 +. Prng.float w.rng 1.0)

let lock_table w c = w.locks.(c)

let closed_nesting w =
  match w.p.protocol with
  | Serial -> true
  | Locking { closed } -> closed
  | Certify -> false (* lock-free; certification happens at commit *)

let lock_free w = match w.p.protocol with Certify -> true | Serial | Locking _ -> false

let wake_component w c =
  let pending = List.rev !(w.waiters.(c)) in
  w.waiters.(c) := [];
  List.iter (fun retry -> retry ()) pending

let release_attempt_locks w att =
  Array.iteri
    (fun c table ->
      if Lock.release_if ?on_release:w.on_release table (fun ow -> Hashtbl.mem att.insts ow)
      then wake_component w c)
    w.locks

let new_instance w att ~parent =
  w.next_inst <- w.next_inst + 1;
  let inst = w.next_inst in
  Hashtbl.replace att.insts inst ();
  (match parent with Some p -> Hashtbl.replace w.inst_parent inst p | None -> ());
  inst

(* The set {q, parent q, ...}: the owners whose retained locks never block
   an operation running on behalf of [q]. *)
let ancestor_chain w q =
  let rec go acc q =
    let acc = q :: acc in
    match Hashtbl.find_opt w.inst_parent q with Some p -> go acc p | None -> acc
  in
  go [] q

(* ------------------------------------------------------------------ *)
(* Execution                                                           *)
(* ------------------------------------------------------------------ *)

(* Flight-recorder events use the simulated clock — the same timeline as
   the trace — so a dumped tail reads in schedule order. *)
let sim_event w ?severity ~name ~client ~seq ~attempt () =
  if Recorder.enabled w.recorder then
    Recorder.event w.recorder ?severity ~cat:"sim" ~ts:w.now
      ~labels:
        (Labels.v
           [
             ("client", string_of_int client);
             ("seq", string_of_int seq);
             ("attempt", string_of_int attempt);
           ])
      name

(* One span on [client]'s trace, starting at simulated time [from]
   (default now) and lasting [dur] seconds (default 0: an instant).
   Callers guard with [Span.enabled] to skip building the labels. *)
let sim_span w ~client ?(from = w.now) ?(dur = 0.0) name labels =
  let t0 = sim_s from in
  ignore
    (Span.emit w.spans ~cat:"sim" ~labels:(Labels.v labels)
       ~trace:w.traces.(client) ~t0 ~t1:(t0 +. dur) name)

let component_name w c = fst w.topo.Template.components.(c)

let rec submit w ~client ~seq ~attempt_no ~first_submitted tmpl =
  if attempt_no > w.p.max_attempts then begin
    w.given_up <- w.given_up + 1;
    Metrics.incr w.metrics "sim.given_up";
    sim_event w ~severity:Recorder.Error ~name:"give_up" ~client ~seq
      ~attempt:attempt_no ();
    if Span.enabled w.spans then
      sim_span w ~client "give_up"
        [ ("seq", string_of_int seq); ("attempts", string_of_int attempt_no) ]
  end
  else begin
    if attempt_no > 0 then begin
      Metrics.incr w.metrics "sim.retries";
      sim_event w ~severity:Recorder.Debug ~name:"retry" ~client ~seq
        ~attempt:attempt_no ();
      if Span.enabled w.spans then
        sim_span w ~client "retry"
          [ ("seq", string_of_int seq); ("attempt", string_of_int attempt_no) ]
    end;
    let att =
      {
        aid =
          (w.next_aid <- w.next_aid + 1;
           w.next_aid);
        client;
        seq;
        attempt_no;
        tmpl;
        store_tx = Repro_storage.Store.begin_tx w.store;
        first_submitted;
        alive = true;
        done_ops = [];
        insts = Hashtbl.create 16;
      }
    in
    exec_node w att [] None None tmpl ~k:(fun () -> commit w att)
  end

(* Execute template node [t] (reversed path [rpath]) scheduled by component
   [parent_comp] on behalf of transaction instance [parent_inst] ([None] for
   the root); call [k] when it completes. *)
and exec_node w att rpath parent_comp parent_inst (t : Template.t) ~k =
  let self_inst = new_instance w att ~parent:parent_inst in
  (* Invocation latency: a remote call does not reach its component
     instantaneously, so concurrent transactions' lock requests genuinely
     interleave. *)
  let start () =
    if att.alive then
      exec_node_locked w att rpath parent_comp parent_inst self_inst t ~k
  in
  if parent_comp = None || w.p.dispatch_delay <= 0.0 then start ()
  else begin
    Metrics.incr w.metrics "sim.dispatches";
    if Span.enabled w.spans then
      sim_span w ~client:att.client "dispatch"
        [
          ("op", t.Template.label.Label.name);
          ("component", component_name w (Option.get parent_comp));
        ];
    at w (w.now +. (w.p.dispatch_delay *. (0.5 +. Prng.float w.rng 1.0))) start
  end

and exec_node_locked w att rpath parent_comp parent_inst self_inst (t : Template.t) ~k =
  acquire w att parent_comp parent_inst t.Template.label ~k:(fun () ->
      let finish () =
        (match parent_comp with
        | Some c -> att.done_ops <- (w.now, c, rpath) :: att.done_ops
        | None -> ());
        (* This node's children's locks (owner: [self_inst]): open nesting
           releases them at subtransaction commit; closed nesting passes
           them to the parent, which retains them to the root. *)
        if closed_nesting w then begin
          match parent_inst with
          | Some p ->
            Array.iteri
              (fun c table ->
                if Lock.change_owner_if table (fun ow -> ow = self_inst) ~owner:p
                then wake_component w c)
              w.locks
          | None -> () (* the root's locks die at commit *)
        end
        else
          Array.iteri
            (fun c table ->
              if Lock.release_if ?on_release:w.on_release table (fun ow -> ow = self_inst)
              then wake_component w c)
            w.locks;
        k ()
      in
      match t.Template.children with
      | [] ->
        let dt = service_time w in
        at w (w.now +. dt) (fun () ->
            if att.alive then begin
              ignore (Repro_storage.Store.apply w.store att.store_tx t.Template.label);
              finish ()
            end)
      | children ->
        let c = Option.get t.Template.component in
        if t.Template.sequential then begin
          let rec seq_run i = function
            | [] -> finish ()
            | child :: rest ->
              exec_node w att (i :: rpath) (Some c) (Some self_inst) child
                ~k:(fun () -> if att.alive then seq_run (i + 1) rest)
          in
          seq_run 0 children
        end
        else begin
          let remaining = ref (List.length children) in
          let child_done () =
            decr remaining;
            if !remaining = 0 && att.alive then finish ()
          in
          List.iteri
            (fun i child ->
              exec_node w att (i :: rpath) (Some c) (Some self_inst) child
                ~k:child_done)
            children
        end)

(* Acquire the lock protecting an operation at its scheduling component on
   behalf of [parent_inst], blocking (with a timeout that aborts the root)
   while conflicting locks of non-ancestors are held. *)
and acquire w att parent_comp parent_inst label ~k =
  if lock_free w then k ()
  else
  match (parent_comp, parent_inst) with
  | None, _ | _, None -> k ()
  | Some c, Some owner ->
    let acquired = ref false in
    let blocked_once = ref false in
    let wait_start = ref 0.0 in
    (* Close the lock_wait span whichever way the wait ends. *)
    let wait_over outcome =
      let wait = w.now -. !wait_start in
      Metrics.observe w.metrics w.wait_hist wait;
      if Span.enabled w.spans then
        sim_span w ~client:att.client ~from:!wait_start ~dur:(sim_s wait)
          "lock_wait"
          [
            ("op", label.Label.name);
            ("component", component_name w c);
            ("outcome", outcome);
          ]
    in
    let rec try_lock () =
      if att.alive && not !acquired then begin
        let chain = ancestor_chain w owner in
        let permits ow = List.mem ow chain in
        match Lock.try_acquire ~now:w.now (lock_table w c) ~owner ~permits label with
        | Ok _key ->
          acquired := true;
          if !blocked_once then wait_over "acquired";
          Metrics.incr w.metrics "sim.lock_acquires";
          if Span.enabled w.spans then
            sim_span w ~client:att.client "lock_acquire"
              [
                ("op", label.Label.name);
                ("component", component_name w c);
                ("owner", string_of_int owner);
              ];
          k ()
        | Error blockers ->
          if not !blocked_once then begin
            blocked_once := true;
            wait_start := w.now;
            w.lock_waits <- w.lock_waits + 1;
            Metrics.incr w.metrics "sim.lock_waits";
            if Span.enabled w.spans then
              sim_span w ~client:att.client "lock_blocked"
                [
                  ("op", label.Label.name);
                  ("component", component_name w c);
                  ( "blockers",
                    String.concat "," (List.map string_of_int blockers) );
                ];
            at w (w.now +. w.p.lock_timeout) (fun () ->
                if att.alive && not !acquired then begin
                  wait_over "timeout";
                  abort w att
                end)
          end;
          w.waiters.(c) := try_lock :: !(w.waiters.(c))
      end
    in
    try_lock ()

and abort w att =
  if att.alive then begin
    att.alive <- false;
    w.aborts <- w.aborts + 1;
    Metrics.incr w.metrics "sim.aborts";
    sim_event w ~severity:Recorder.Warn ~name:"abort" ~client:att.client
      ~seq:att.seq ~attempt:att.attempt_no ();
    if Span.enabled w.spans then
      sim_span w ~client:att.client "abort"
        [
          ("aid", string_of_int att.aid);
          ("attempt", string_of_int att.attempt_no);
        ];
    Repro_storage.Store.abort w.store att.store_tx;
    release_attempt_locks w att;
    let delay = w.p.backoff *. (0.5 +. Prng.float w.rng 1.0) in
    if Span.enabled w.spans then
      sim_span w ~client:att.client ~dur:(sim_s delay) "backoff"
        [ ("aid", string_of_int att.aid) ];
    at w (w.now +. delay) (fun () ->
        submit w ~client:att.client ~seq:att.seq ~attempt_no:(att.attempt_no + 1)
          ~first_submitted:att.first_submitted att.tmpl)
  end

and commit w att =
  if att.alive then begin
    if lock_free w && not (certifies w att) then abort w att
    else begin
    att.alive <- false;
    Repro_storage.Store.commit w.store att.store_tx;
    release_attempt_locks w att;
    w.committed <- att :: w.committed;
    let latency = w.now -. att.first_submitted in
    w.latencies <- latency :: w.latencies;
    w.last_commit <- max w.last_commit w.now;
    Metrics.incr w.metrics "sim.committed";
    Metrics.observe w.metrics "sim.latency" latency;
    sim_event w ~name:"commit" ~client:att.client ~seq:att.seq
      ~attempt:att.attempt_no ();
    if Span.enabled w.spans then
      sim_span w ~client:att.client "commit"
        [
          ("aid", string_of_int att.aid);
          ("seq", string_of_int att.seq);
          ("attempt", string_of_int att.attempt_no);
          ("latency", Fmt.str "%g" latency);
        ];
    (* The client session continues. *)
    let seq = att.seq + 1 in
    if seq < w.p.txs_per_client then begin
      let client = att.client in
      at w (w.now +. w.p.think) (fun () ->
          let tmpl = w.gen w.rng ~client ~seq in
          submit w ~client ~seq ~attempt_no:0 ~first_submitted:w.now tmpl)
    end
    end
  end

(* Backward validation for the lock-free protocol: the candidate commits
   only if the committed prefix extended with it is still Comp-C.  Because
   every commit re-certifies the whole prefix, the finally emitted history
   is guaranteed correct.

   The decision is made by the engine's incremental path: the assembly
   order is deterministic and oldest-first, so the candidate history
   extends the session's snapshot of the committed prefix (new nodes get
   larger ids, relations only grow) and one [Engine.extend] certifies it
   against the warm conflict memos and the previously closed observed
   order; a rejected candidate is rolled back with [Engine.undo] so the
   snapshot stays the committed prefix.  [certify_full_recheck] restores
   the legacy oracle — a cold batch [Compc.is_correct] over the whole
   prefix — for benchmarking and equivalence tests. *)
(* The certification check runs the real Comp-C decision procedure, so its
   cost is wall-clock time, not simulated time; the [certify_check] span
   starts at the simulated commit point but its duration (and the metrics
   histogram) report the wall cost.  The checker's own reduction spans are
   not threaded through here — their wall-clock timestamps would not line
   up with this collector's simulated clock — but its metrics
   (dimensionless counters and durations) are shared. *)
and certifies w att =
  let trial = assemble_attempts w (att :: w.committed) in
  let t0 = Repro_obs.Clock.now_wall () in
  let t0c = Repro_obs.Clock.now_cpu () in
  let ok =
    if w.p.certify_full_recheck then
      Repro_core.Compc.is_correct ~metrics:w.metrics trial
    else
      match Repro_core.Engine.extend w.session trial with
      | Repro_core.Engine.Accepted _ -> true
      | Repro_core.Engine.Rejected _ ->
        Repro_core.Engine.undo w.session;
        false
  in
  let wall = Repro_obs.Clock.now_wall () -. t0 in
  Metrics.incr w.metrics "sim.certify_checks";
  if not ok then begin
    Metrics.incr w.metrics "sim.certify_rejects";
    sim_event w ~severity:Recorder.Error ~name:"certify_reject"
      ~client:att.client ~seq:att.seq ~attempt:att.attempt_no ()
  end;
  Metrics.observe w.metrics "sim.certify_wall_s" wall;
  Metrics.observe w.metrics "sim.certify_cpu_s"
    (Repro_obs.Clock.now_cpu () -. t0c);
  if Span.enabled w.spans then
    sim_span w ~client:att.client ~dur:wall "certify_check"
      [
        ("aid", string_of_int att.aid);
        ("prefix", string_of_int (List.length w.committed));
        ("ok", string_of_bool ok);
        ("wall_ms", Fmt.str "%.3f" (wall *. 1e3));
      ];
  ok

(* ------------------------------------------------------------------ *)
(* History assembly                                                    *)
(* ------------------------------------------------------------------ *)

and assemble_attempts w newest_first =
  let module B = History.Builder in
  let b = B.create () in
  let scheds =
    Array.map (fun (name, spec) -> B.schedule b ~conflict:spec name) w.topo.Template.components
  in
  (* committed, oldest first *)
  let committed = List.rev newest_first in
  (* component -> (completion time, node id) list, for the logs *)
  let log_entries = Array.make (Array.length scheds) [] in
  (* (client, root component) -> last root, for session input orders *)
  let last_root = Hashtbl.create 8 in
  List.iter
    (fun att ->
      (* Build this attempt's execution tree; remember path -> node id. *)
      let ids = Hashtbl.create 16 in
      let rec build rpath parent (t : Template.t) =
        let id =
          match (parent, t.Template.component) with
          | None, Some c ->
            B.root b ~sched:scheds.(c)
              (Label.v
                 ~args:t.Template.label.Label.args
                 (Fmt.str "%s.%d.%d" t.Template.label.Label.name att.client att.seq))
          | None, None -> invalid_arg "Sim: root template must name a component"
          | Some p, Some c -> B.tx b ~parent:p ~sched:scheds.(c) t.Template.label
          | Some p, None -> B.leaf b ~parent:p t.Template.label
        in
        Hashtbl.replace ids rpath id;
        let kids = List.mapi (fun i child -> build (i :: rpath) (Some id) child) t.Template.children in
        if t.Template.sequential then begin
          let rec chain = function
            | a :: (b' :: _ as rest) ->
              B.intra_strong b ~a ~b:b';
              chain rest
            | _ -> ()
          in
          chain kids
        end;
        id
      in
      let root = build [] None att.tmpl in
      (* Session order: strong input between consecutive roots of a client
         on the same component. *)
      let rc = Option.get att.tmpl.Template.component in
      (match Hashtbl.find_opt last_root (att.client, rc) with
      | Some prev -> B.input_strong b ~a:prev ~b:root
      | None -> ());
      Hashtbl.replace last_root (att.client, rc) root;
      (* Log entries. *)
      List.iter
        (fun (time, c, rpath) ->
          match Hashtbl.find_opt ids rpath with
          | Some id -> log_entries.(c) <- (time, id) :: log_entries.(c)
          | None -> assert false)
        att.done_ops)
    committed;
  Array.iteri
    (fun c entries ->
      match entries with
      | [] -> ()
      | entries ->
        let sorted =
          List.sort (fun (t1, i1) (t2, i2) -> compare (t1, i1) (t2, i2)) entries
        in
        B.log b ~sched:scheds.(c) (List.map snd sorted))
    log_entries;
  B.seal b

let assemble w = assemble_attempts w w.committed

(* ------------------------------------------------------------------ *)
(* Driver                                                              *)
(* ------------------------------------------------------------------ *)

let run ?(spans = Span.null) ?(metrics = Metrics.null)
    ?(recorder = Recorder.null) p topo ~gen =
  let n = Array.length topo.Template.components in
  let proto = protocol_name p.protocol in
  let w =
    {
      p;
      topo;
      gen;
      locks = Array.init n (fun c ->
          match p.protocol with
          | Serial -> Lock.create Conflict.Always
          | Locking _ | Certify -> Lock.create (snd topo.Template.components.(c)));
      store = Repro_storage.Store.create ();
      rng = Prng.create ~seed:p.seed;
      now = 0.0;
      events = [];
      eseq = 0;
      waiters = Array.init n (fun _ -> ref []);
      committed = [];
      next_aid = 0;
      next_inst = 0;
      inst_parent = Hashtbl.create 256;
      aborts = 0;
      given_up = 0;
      lock_waits = 0;
      latencies = [];
      last_commit = 0.0;
      session = Repro_core.Engine.create ~obs:(Repro_obs.Sink.v ~metrics ()) ();
      spans;
      (* One trace per client, minted up front from the collector's own
         counter: deterministic, and no draw from [rng]. *)
      traces = Array.init p.clients (fun _ -> Span.fresh_trace spans);
      metrics;
      recorder;
      wait_hist = "sim.lock_wait_time." ^ proto;
      hold_hist = "sim.lock_hold_time." ^ proto;
      on_release = None;
    }
  in
  if Metrics.enabled metrics then
    w.on_release <-
      Some
        (fun ~owner:_ ~label:_ ~since ->
          Metrics.observe w.metrics w.hold_hist (w.now -. since));
  (* Initial submissions, slightly staggered for determinism. *)
  for client = 0 to p.clients - 1 do
    at w (0.001 *. float_of_int client) (fun () ->
        let tmpl = w.gen w.rng ~client ~seq:0 in
        Template.validate topo tmpl;
        submit w ~client ~seq:0 ~attempt_no:0 ~first_submitted:w.now tmpl)
  done;
  let guard = ref 0 in
  let rec loop () =
    match w.events with
    | [] -> ()
    | (time, _, fn) :: rest ->
      incr guard;
      if !guard > 5_000_000 then failwith "Sim.run: event budget exceeded";
      w.events <- rest;
      w.now <- time;
      fn ();
      loop ()
  in
  loop ();
  let committed = List.length w.committed in
  let mean_latency =
    match w.latencies with
    | [] -> 0.0
    | l -> List.fold_left ( +. ) 0.0 l /. float_of_int (List.length l)
  in
  if Metrics.enabled metrics then begin
    Metrics.set metrics "sim.makespan" w.last_commit;
    Metrics.set metrics "sim.mean_latency" mean_latency;
    Metrics.set metrics "sim.throughput"
      (if w.last_commit > 0.0 then float_of_int committed /. w.last_commit
       else 0.0)
  end;
  {
    committed;
    aborts = w.aborts;
    given_up = w.given_up;
    lock_waits = w.lock_waits;
    makespan = w.last_commit;
    mean_latency;
    history = assemble w;
  }
