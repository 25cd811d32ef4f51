(* Multi-stream certification service: the library half of [compserve].

   Everything transport-independent lives here — the per-root chunker
   that turns a history file into a streamable prefix chain, the wire
   codec of the length-prefixed line protocol, and the sharded execution
   core that multiplexes many monitored streams across worker domains —
   so the daemon in [bin/cmd_serve.ml] is only sockets and a select
   loop, and the tests drive the full stack in-process. *)

open Repro_model
open Repro_obs
module Engine = Repro_core.Engine
module Reduction = Repro_core.Reduction
module Syntax = Repro_histlang.Syntax

(* ------------------------------------------------------------------ *)
(* Per-root chunking                                                   *)
(* ------------------------------------------------------------------ *)

module Chunks = struct
  type t = { preamble : string; chunks : string list }

  (* Schedule names outside the histlang NAME alphabet (or colliding with
     a keyword) cannot round-trip through the textual protocol. *)
  let name_ok s =
    s <> ""
    && (not (List.mem s Syntax.keywords))
    && String.for_all Syntax.is_name_char s

  let spec_string = function
    | Conflict.Explicit _ ->
      invalid_arg
        "Server.Chunks.of_history: explicit conflict specifications reference \
         node names and cannot be streamed"
    | spec -> Fmt.str "%a" Syntax.print_spec spec

  (* Split [h] into a schedule preamble plus one chunk per root
     transaction, such that [preamble ^ chunk_1 ^ .. ^ chunk_k] parses to
     [History.prefix_by_roots h k]: node declarations follow the same
     root-major depth-first order (so the parser assigns the same
     identifiers), and each relation line lands in the chunk of its
     later endpoint's root.  Log lines are omitted — [Builder.seal]
     validates a log as a full permutation of its schedule's operations,
     so no restriction of one is replayable, and no certification path
     consults them (they are builder-input validation only). *)
  let of_history h =
    List.iter
      (fun (s : History.schedule) ->
        if not (name_ok s.History.sname) then
          invalid_arg
            (Fmt.str
               "Server.Chunks.of_history: schedule name %S is not streamable"
               s.History.sname))
      (History.schedules h);
    let pre = Buffer.create 256 in
    List.iter
      (fun (s : History.schedule) ->
        Buffer.add_string pre
          (Fmt.str "schedule %s conflict %s\n" s.History.sname
             (spec_string s.History.conflict)))
      (History.schedules h);
    let roots = History.roots h in
    let n_chunks = List.length roots in
    let nmap = Hashtbl.create 64 in
    (* original id -> root-major DFS rank *)
    let chunk_of = Hashtbl.create 64 in
    (* original id -> chunk index *)
    let ctr = ref 0 in
    List.iteri
      (fun ci r ->
        let rec dfs i =
          Hashtbl.replace nmap i !ctr;
          incr ctr;
          Hashtbl.replace chunk_of i ci;
          List.iter dfs (History.children h i)
        in
        dfs r)
      roots;
    let nn i = Fmt.str "n%d" (Hashtbl.find nmap i) in
    let sname sid = (History.schedule h sid).History.sname in
    let bufs = Array.init n_chunks (fun _ -> Buffer.create 256) in
    let add ci line = Buffer.add_string bufs.(ci) line in
    List.iteri
      (fun ci r ->
        let rec dfs i =
          let n = History.node h i in
          (match (n.History.parent, n.History.sched) with
          | None, Some s ->
            add ci (Fmt.str "root %s @@ %s %a\n" (nn i) (sname s) Label.pp n.History.label)
          | Some p, Some s ->
            add ci
              (Fmt.str "tx %s @@ %s parent %s %a\n" (nn i) (sname s) (nn p) Label.pp
                 n.History.label)
          | Some p, None ->
            add ci (Fmt.str "leaf %s parent %s %a\n" (nn i) (nn p) Label.pp n.History.label)
          | None, None -> assert false);
          List.iter dfs n.History.children
        in
        dfs r)
      roots;
    for i = 0 to History.n_nodes h - 1 do
      let n = History.node h i in
      let ci = Hashtbl.find chunk_of i in
      Repro_order.Rel.iter
        (fun a b ->
          let bang = Repro_order.Rel.mem a b n.History.intra_strong in
          add ci
            (Fmt.str "intra%s : %s < %s\n" (if bang then "!" else "") (nn a) (nn b)))
        n.History.intra_weak
    done;
    (* A cross-root pair belongs to the chunk of whichever endpoint's
       root comes later — both names are in scope by then, and the
       restriction to the first k chunks is exactly the restriction to
       the first k roots' subtrees. *)
    let later a b = max (Hashtbl.find chunk_of a) (Hashtbl.find chunk_of b) in
    List.iter
      (fun (s : History.schedule) ->
        Repro_order.Rel.iter
          (fun a b ->
            if History.is_root h a && History.is_root h b then
              let bang = Repro_order.Rel.mem a b s.History.strong_in in
              add (later a b)
                (Fmt.str "input%s : %s < %s\n" (if bang then "!" else "") (nn a) (nn b)))
          s.History.weak_in;
        Repro_order.Rel.iter
          (fun a b ->
            let bang = Repro_order.Rel.mem a b s.History.strong_out in
            add (later a b)
              (Fmt.str "order%s %s : %s < %s\n"
                 (if bang then "!" else "")
                 s.History.sname (nn a) (nn b)))
          s.History.weak_out)
      (History.schedules h);
    { preamble = Buffer.contents pre; chunks = Array.to_list (Array.map Buffer.contents bufs) }
end

(* ------------------------------------------------------------------ *)
(* Wire protocol                                                       *)
(* ------------------------------------------------------------------ *)

module Wire = struct
  (* Protocol version 3: the frames of version 2, which added an optional
     [t=<trace>:<parent>] context token on [append] frames and the admin
     requests [metrics]/[health]/[slow] to version 1.  Version 3 changes
     one answer: an accepted append answers [verdict <stream> accept]
     without the serial witness, which [verdict] still returns. *)
  let protocol_version = 3

  type ctx = { trace : int; parent : int }

  type request =
    | Open of { stream : string; window : int option }
    | Append of { stream : string; body : string; ctx : ctx option }
    | Verdict of string
    | Explain of string
    | Close of string
    | Stats
    | Metrics
    | Health
    | Slow of float option  (* retained-event filter threshold, seconds *)

  type response =
    | Ok
    | Verdict_r of { stream : string; accepted : bool; detail : string }
    | Json_r of Json.t
    | Text_r of string
    | Err of string

  type 'a decoded = Need_more | Got of 'a * int | Malformed of string * int

  let stream_ok s =
    s <> "" && String.for_all (fun c -> c > ' ' && c < '\x7f') s

  let ctx_token { trace; parent } = Fmt.str "t=%x:%x" trace parent

  (* [t=<trace-hex>:<parent-hex>]; None on anything else. *)
  let parse_ctx_token w =
    if String.length w < 4 || String.sub w 0 2 <> "t=" then None
    else
      match String.index_from_opt w 2 ':' with
      | None -> None
      | Some c -> (
        let hex s =
          match int_of_string_opt ("0x" ^ s) with
          | Some v when v >= 0 -> Some v
          | _ -> None
        in
        match
          ( hex (String.sub w 2 (c - 2)),
            hex (String.sub w (c + 1) (String.length w - c - 1)) )
        with
        | Some trace, Some parent when trace > 0 -> Some { trace; parent }
        | _ -> None)

  let encode_request = function
    | Open { stream; window = None } -> Fmt.str "open %s\n" stream
    | Open { stream; window = Some w } -> Fmt.str "open %s %d\n" stream w
    | Append { stream; body; ctx = None } ->
      Fmt.str "append %s %d\n%s" stream (String.length body) body
    | Append { stream; body; ctx = Some c } ->
      Fmt.str "append %s %d %s\n%s" stream (String.length body) (ctx_token c)
        body
    | Verdict s -> Fmt.str "verdict %s\n" s
    | Explain s -> Fmt.str "explain %s\n" s
    | Close s -> Fmt.str "close %s\n" s
    | Stats -> "stats\n"
    | Metrics -> "metrics\n"
    | Health -> "health\n"
    | Slow None -> "slow\n"
    | Slow (Some s) -> Fmt.str "slow %g\n" (s *. 1e3)

  let encode_response = function
    | Ok -> "ok\n"
    | Verdict_r { stream; accepted; detail } ->
      Fmt.str "verdict %s %s%s\n" stream
        (if accepted then "accept" else "reject")
        (if detail = "" then "" else " " ^ detail)
    | Json_r j ->
      let payload = Json.to_string j in
      Fmt.str "json %d\n%s\n" (String.length payload) payload
    | Text_r payload -> Fmt.str "text %d\n%s\n" (String.length payload) payload
    | Err msg ->
      let msg = String.map (fun c -> if c = '\n' then ' ' else c) msg in
      Fmt.str "err %s\n" msg

  (* One framed item out of [buf] starting at [pos]: the command line up
     to '\n', plus — for body-carrying frames — the declared number of
     raw bytes after it.  [Need_more] until the frame is complete, so
     callers accumulate reads and retry; [Malformed] consumes the
     offending line so one bad frame does not wedge the connection. *)
  let split_words line =
    String.split_on_char ' ' line |> List.filter (fun w -> w <> "")

  let decode_request buf ~pos =
    match String.index_from_opt buf pos '\n' with
    | None -> Need_more
    | Some nl -> (
      let line = String.sub buf pos (nl - pos) in
      let consumed_line = nl - pos + 1 in
      let malformed msg = Malformed (msg, consumed_line) in
      match split_words line with
      | [ "open"; sid ] when stream_ok sid ->
        Got (Open { stream = sid; window = None }, consumed_line)
      | [ "open"; sid; w ] when stream_ok sid -> (
        match int_of_string_opt w with
        | Some w when w > 0 -> Got (Open { stream = sid; window = Some w }, consumed_line)
        | _ -> malformed "open: window must be a positive integer")
      | [ "append"; sid; n ] when stream_ok sid -> (
        match int_of_string_opt n with
        | Some n when n >= 0 ->
          if String.length buf - (nl + 1) < n then Need_more
          else
            Got
              ( Append
                  { stream = sid; body = String.sub buf (nl + 1) n; ctx = None },
                consumed_line + n )
        | _ -> malformed "append: expected a byte count")
      | [ "append"; sid; n; tok ] when stream_ok sid -> (
        match (int_of_string_opt n, parse_ctx_token tok) with
        | Some n, Some ctx when n >= 0 ->
          if String.length buf - (nl + 1) < n then Need_more
          else
            Got
              ( Append
                  {
                    stream = sid;
                    body = String.sub buf (nl + 1) n;
                    ctx = Some ctx;
                  },
                consumed_line + n )
        | Some n, None when n >= 0 ->
          (* The byte count is good, so the body length is known: wait for
             it and skip the whole frame, not just the line — otherwise
             the body bytes would be re-parsed as request lines. *)
          if String.length buf - (nl + 1) < n then Need_more
          else
            Malformed ("append: malformed trace context token", consumed_line + n)
        | _ -> malformed "append: expected a byte count")
      | [ "verdict"; sid ] when stream_ok sid -> Got (Verdict sid, consumed_line)
      | [ "explain"; sid ] when stream_ok sid -> Got (Explain sid, consumed_line)
      | [ "close"; sid ] when stream_ok sid -> Got (Close sid, consumed_line)
      | [ "stats" ] -> Got (Stats, consumed_line)
      | [ "metrics" ] -> Got (Metrics, consumed_line)
      | [ "health" ] -> Got (Health, consumed_line)
      | [ "slow" ] -> Got (Slow None, consumed_line)
      | [ "slow"; ms ] -> (
        match float_of_string_opt ms with
        | Some ms when ms >= 0.0 -> Got (Slow (Some (ms /. 1e3)), consumed_line)
        | _ -> malformed "slow: expected a millisecond threshold")
      | [] -> malformed "empty request line"
      | w :: _ -> malformed (Fmt.str "unknown or malformed request %S" w))

  let decode_response buf ~pos =
    match String.index_from_opt buf pos '\n' with
    | None -> Need_more
    | Some nl -> (
      let line = String.sub buf pos (nl - pos) in
      let consumed_line = nl - pos + 1 in
      match split_words line with
      | [ "ok" ] -> Got (Ok, consumed_line)
      | "verdict" :: sid :: verdict :: detail when verdict = "accept" || verdict = "reject"
        ->
        Got
          ( Verdict_r
              {
                stream = sid;
                accepted = verdict = "accept";
                detail = String.concat " " detail;
              },
            consumed_line )
      | [ "json"; n ] -> (
        match int_of_string_opt n with
        | Some n when n >= 0 ->
          (* payload + trailing '\n' *)
          if String.length buf - (nl + 1) < n + 1 then Need_more
          else
            Got (Json_r (Json.of_string (String.sub buf (nl + 1) n)), consumed_line + n + 1)
        | _ -> Malformed ("json: expected a byte count", consumed_line))
      | [ "text"; n ] -> (
        match int_of_string_opt n with
        | Some n when n >= 0 ->
          if String.length buf - (nl + 1) < n + 1 then Need_more
          else
            Got (Text_r (String.sub buf (nl + 1) n), consumed_line + n + 1)
        | _ -> Malformed ("text: expected a byte count", consumed_line))
      | "err" :: rest -> Got (Err (String.concat " " rest), consumed_line)
      | _ -> Malformed (Fmt.str "unknown response line %S" line, consumed_line))
end

(* ------------------------------------------------------------------ *)
(* Sharded execution core                                              *)
(* ------------------------------------------------------------------ *)

type stream = {
  mutable session : Syntax.Session.t;  (* history and names after the last good append *)
  eng : Engine.t;
  recorder : Recorder.t;  (* per-stream flight recorder *)
  mutable appends : int;
}

let nodes s = History.n_nodes (Syntax.Session.history s.session)

(* A [Req] is a wire request plus its response continuation; [enq] is the
   submit timestamp, so the worker can record the shard queue wait as a
   span of the request's trace.  A [Hook] runs an arbitrary closure on
   the shard's own domain — the admin plane uses it to copy shard-private
   state (registry, slow log) without any cross-domain reads. *)
type job =
  | Req of { req : Wire.request; enq : float; k : Wire.response -> unit }
  | Hook of (shard -> unit)

(* Shard-private state, only ever touched by the owning worker domain of
   the {!Repro_par.Shards} set — which is what lets the streams table,
   the metrics registry, the span collector and the slow log go
   lock-free. *)
and shard = {
  index : int;
  streams : (string, stream) Hashtbl.t;
  metrics : Metrics.t;
  labels : Labels.t;  (* {shard=<index>} on every serve.* series *)
  spans : Span.t;  (* per-shard span collector; null unless span_rate *)
  slow : Recorder.t;  (* slow-request log (bounded ring, always on) *)
  slow_s : float;  (* appends slower than this are logged *)
}

type t = {
  pool : job Repro_par.Shards.t;
  state : shard array;  (* indexed by shard index *)
  window : int option;  (* default truncation window for new streams *)
  span_rate : float option;  (* head-sampling rate; None = tracing off *)
  born : float;  (* Clock.now_wall at creation, for health uptime *)
}

let shard_count t = Array.length t.state

(* ---- stream operations (run on the owning shard's domain) ---- *)

(* [verdict] answers with the whole serial witness; an append answers
   only accept, so its cost does not grow with the stream. *)
let verdict_response ~witness sid (v : Engine.verdict) =
  match v with
  | Engine.Accepted serial ->
    Wire.Verdict_r
      {
        stream = sid;
        accepted = true;
        detail =
          (if witness then String.concat " " (List.map string_of_int serial) else "");
      }
  | Engine.Rejected f ->
    Wire.Verdict_r
      { stream = sid; accepted = false; detail = Reduction.failure_kind f }

let exec_open ~window:default_window sh sid window =
  if Hashtbl.mem sh.streams sid then Wire.Err (Fmt.str "stream %s already open" sid)
  else begin
    let recorder = Recorder.create () in
    let eng =
      Engine.create
        ~obs:(Sink.v ~metrics:sh.metrics ~recorder ~spans:sh.spans ())
        ?window:(match window with Some _ -> window | None -> default_window)
        ()
    in
    Hashtbl.replace sh.streams sid
      { session = Syntax.Session.empty (); eng; recorder; appends = 0 };
    Metrics.incr sh.metrics ~labels:sh.labels "serve.open";
    Metrics.set sh.metrics ~labels:sh.labels "serve.streams"
      (float_of_int (Hashtbl.length sh.streams));
    Wire.Ok
  end

let exec_append sh sid body =
  match Hashtbl.find_opt sh.streams sid with
  | None -> Wire.Err (Fmt.str "no such stream %s" sid)
  | Some s -> (
    let t0 = Clock.now_wall () in
    (* The session parses the chunk alone and seals only its delta;
       [History.extend] refuses a chunk that would change a relation
       among the stream's nodes, which is the contract [Engine.extend]
       relies on.  The grown session is kept only once the engine has
       taken the history: a refused chunk leaves nothing behind. *)
    match Syntax.Session.feed s.session body with
    | exception Syntax.Parse_error e ->
      Wire.Err (Fmt.str "parse error: %a" Syntax.pp_error e)
    | exception Invalid_argument msg ->
      Wire.Err
        (if String.starts_with ~prefix:"not an extension" msg then msg
         else "invalid history: " ^ msg)
    | next -> (
      let h = Syntax.Session.history next in
      if History.n_nodes h <= nodes s then
        Wire.Err
          (Fmt.str "append adds no nodes (%d before, %d after): not an extension"
             (nodes s) (History.n_nodes h))
      else
        match Engine.extend s.eng h with
        | exception Invalid_argument msg ->
          Wire.Err (Fmt.str "not an extension: %s" msg)
        | v ->
          s.session <- next;
          s.appends <- s.appends + 1;
          let wall = Clock.now_wall () -. t0 in
          Metrics.incr sh.metrics ~labels:sh.labels "serve.append";
          Metrics.observe sh.metrics ~labels:sh.labels "serve.append_wall_s"
            wall;
          if wall >= sh.slow_s then
            Recorder.record sh.slow ~severity:Recorder.Warn ~cat:"serve"
              ~labels:
                (Labels.v
                   [
                     ("stream", sid);
                     ("shard", string_of_int sh.index);
                     ("append", string_of_int s.appends);
                     ("nodes", string_of_int (nodes s));
                     ("wall_us", Printf.sprintf "%.1f" (wall *. 1e6));
                   ])
              "slow_append";
          verdict_response ~witness:false sid v))

let exec_verdict sh sid =
  match Hashtbl.find_opt sh.streams sid with
  | None -> Wire.Err (Fmt.str "no such stream %s" sid)
  | Some s -> (
    match Engine.verdict s.eng with
    | None -> Wire.Verdict_r { stream = sid; accepted = true; detail = "empty" }
    | Some v -> verdict_response ~witness:true sid v)

let exec_explain sh sid =
  match Hashtbl.find_opt sh.streams sid with
  | None -> Wire.Err (Fmt.str "no such stream %s" sid)
  | Some s ->
    Wire.Json_r
      (Json.Obj
         [
           ("schema", Json.String "compserve-explain/1");
           ("stream", Json.String sid);
           ("appends", Json.Int s.appends);
           ("nodes", Json.Int (nodes s));
           ("engine", Engine.introspect ~deep:false s.eng);
           ("flight_recorder", Recorder.to_json s.recorder);
         ])

let exec_close sh sid =
  if not (Hashtbl.mem sh.streams sid) then Wire.Err (Fmt.str "no such stream %s" sid)
  else begin
    Hashtbl.remove sh.streams sid;
    Metrics.incr sh.metrics ~labels:sh.labels "serve.close";
    Metrics.set sh.metrics ~labels:sh.labels "serve.streams"
      (float_of_int (Hashtbl.length sh.streams));
    Wire.Ok
  end

let exec ~window sh (req : Wire.request) =
  match req with
  | Wire.Open { stream; window = w } -> exec_open ~window sh stream w
  | Wire.Append { stream; body; ctx = _ } -> exec_append sh stream body
  | Wire.Verdict sid -> exec_verdict sh sid
  | Wire.Explain sid -> exec_explain sh sid
  | Wire.Close sid -> exec_close sh sid
  | Wire.Stats | Wire.Metrics | Wire.Health | Wire.Slow _ ->
    (* Admin requests never reach a single shard's exec: [submit] fans
       them out as snapshot hooks and assembles the merged answer. *)
    Wire.Err "internal error: admin request routed to a shard"

(* ---- shard workers ---- *)

let slow_capacity = 256

let default_slow_s = 0.1

let create ?shards ?window ?span_rate ?(slow_s = default_slow_s) () =
  (match window with
  | Some w when w <= 0 -> invalid_arg "Server.create: window must be positive"
  | _ -> ());
  (match span_rate with
  | Some r when not (r >= 0.0 && r <= 1.0) ->
    invalid_arg "Server.create: span_rate must be within [0,1]"
  | _ -> ());
  if not (slow_s >= 0.0) then
    invalid_arg "Server.create: slow_s must be non-negative";
  let n =
    match shards with
    | Some n when n > 0 -> n
    | Some _ -> invalid_arg "Server.create: shards must be positive"
    | None -> max 1 (min 8 (Domain.recommended_domain_count () - 1))
  in
  let state =
    Array.init n (fun i ->
        {
          index = i;
          streams = Hashtbl.create 16;
          metrics = Metrics.create ();
          labels = Labels.v [ ("shard", string_of_int i) ];
          spans =
            (match span_rate with
            (* Tag i+1: tag 0 is reserved for the transport's (or a
               client's) collector, so ids never collide within a trace. *)
            | Some rate -> Span.create ~rate ~tag:(i + 1) ()
            | None -> Span.null);
          slow = Recorder.create ~capacity:slow_capacity ();
          slow_s;
        })
  in
  let run i job =
    let sh = state.(i) in
    match job with
    | Hook f -> ( try f sh with _ -> ())
    | Req { req; enq; k } ->
      (* Span choreography for a traced append: the queue-wait span hangs
         off the transport's decode span (the wire context's parent), the
         engine parents onto the queue-wait via the collector's ambient
         context, and the encode span — the continuation writing the
         response — is a sibling of the queue-wait under the same
         parent. *)
      let trace, parent0 =
        match req with
        | Wire.Append { ctx = Some c; _ } -> (c.Wire.trace, c.Wire.parent)
        | _ -> (0, 0)
      in
      let traced = Span.sampled sh.spans trace in
      if traced then begin
        let qid =
          Span.emit sh.spans ~parent:parent0 ~cat:"serve" ~labels:sh.labels
            ~trace ~t0:enq ~t1:(Clock.now_wall ()) "serve.queue_wait"
        in
        Span.set_ctx sh.spans ~trace ~parent:qid
      end;
      let resp =
        try exec ~window sh req
        with exn ->
          Wire.Err (Fmt.str "internal error: %s" (Printexc.to_string exn))
      in
      if traced then Span.clear_ctx sh.spans;
      let t_enc = if traced then Clock.now_wall () else 0.0 in
      (try k resp with _ -> ());
      if traced then
        ignore
          (Span.emit sh.spans ~parent:parent0 ~cat:"serve" ~labels:sh.labels
             ~trace ~t0:t_enc ~t1:(Clock.now_wall ()) "serve.encode")
  in
  {
    pool = Repro_par.Shards.create ~shards:n ~run;
    state;
    window;
    span_rate;
    born = Clock.now_wall ();
  }

let submit_shard t index job =
  if not (Repro_par.Shards.submit_to t.pool index job) then
    match job with
    | Req { k; _ } -> ( try k (Wire.Err "server draining") with _ -> ())
    | Hook _ -> ()

(* ---- the admin plane ---- *)

(* One shard's contribution to a quiescent merged snapshot, copied on the
   shard's own domain by a [Hook], so the merge below never reads
   shard-private state across domains. *)
type shard_snap = {
  snap_metrics : Metrics.t;
  snap_slow : Recorder.t;
  snap_streams : int;
  snap_report : Json.t;
}

(* Fan a snapshot hook out to every shard; [k] runs on the last shard's
   domain with the contributions in index order ([None] = that shard
   refused, i.e. the server is draining).  The per-slot writes are
   published to the reader by the counter mutex. *)
let snapshot t k =
  let n = Array.length t.state in
  let acc = Array.make n None in
  let mu = Mutex.create () in
  let left = ref n in
  let finish_one () =
    Mutex.lock mu;
    decr left;
    let last = !left = 0 in
    Mutex.unlock mu;
    if last then k acc
  in
  for i = 0 to n - 1 do
    let hook sh =
      (try
         let m = Metrics.create () in
         Metrics.merge ~into:m sh.metrics;
         let r = Recorder.create ~capacity:(Recorder.capacity sh.slow) () in
         Recorder.absorb ~into:r sh.slow;
         acc.(i) <-
           Some
             {
               snap_metrics = m;
               snap_slow = r;
               snap_streams = Hashtbl.length sh.streams;
               snap_report =
                 Json.Obj
                   [
                     ("shard", Json.Int sh.index);
                     ("streams", Json.Int (Hashtbl.length sh.streams));
                     ("metrics", Metrics.to_json sh.metrics);
                     (* Conflict-spec lints of the shard's live streams
                        (unknown operation names falling to a spec's
                        pessimistic default).  Computed here on the shard's
                        own domain — the admin plane, never the append
                        path. *)
                     ( "lint",
                       Json.List
                         (Hashtbl.fold
                            (fun sid (s : stream) acc ->
                              match Engine.history s.eng with
                              | None -> acc
                              | Some h ->
                                List.fold_left
                                  (fun acc w ->
                                    Json.Obj
                                      [
                                        ("stream", Json.String sid);
                                        ( "warning",
                                          Json.String
                                            (Fmt.str "%a" Validate.pp_warning
                                               w) );
                                      ]
                                    :: acc)
                                  acc (Validate.lint h))
                            sh.streams []) );
                   ];
             }
       with _ -> ());
      finish_one ()
    in
    if not (Repro_par.Shards.submit_to t.pool i (Hook hook)) then finish_one ()
  done

let merged_snapshot snaps =
  let metrics = Metrics.create () in
  let slow =
    Recorder.create ~capacity:(max 1 (Array.length snaps) * slow_capacity) ()
  in
  let streams = ref 0 in
  Array.iter
    (fun s ->
      Metrics.merge ~into:metrics s.snap_metrics;
      Recorder.absorb ~into:slow s.snap_slow;
      streams := !streams + s.snap_streams)
    snaps;
  (metrics, slow, !streams)

let slow_event_json (e : Recorder.event) =
  Json.Obj
    [
      ("ts", Json.Float e.Recorder.ts);
      ("severity", Json.String (Recorder.severity_string e.Recorder.severity));
      (* The canonical encoded series form — label values escaped exactly
         as [Labels.encode] does, so [Labels.decode_series] round-trips
         the event. *)
      ( "series",
        Json.String (Labels.series e.Recorder.name e.Recorder.labels) );
    ]

let slow_wall_us (e : Recorder.event) =
  match Labels.find "wall_us" e.Recorder.labels with
  | Some s -> ( match float_of_string_opt s with Some v -> v | None -> 0.0)
  | None -> 0.0

let admin t (req : Wire.request) k =
  snapshot t (fun acc ->
      if Array.exists Option.is_none acc then
        k (Wire.Err "server draining")
      else
        let snaps = Array.map Option.get acc in
        let metrics, slow, streams = merged_snapshot snaps in
        match req with
        | Wire.Stats ->
          k
            (Wire.Json_r
               (Json.Obj
                  [
                    ("schema", Json.String "compserve-stats/1");
                    ( "shards",
                      Json.List
                        (Array.to_list
                           (Array.map (fun s -> s.snap_report) snaps)) );
                    ("coverage", Coverage.to_json metrics);
                  ]))
        | Wire.Metrics -> k (Wire.Text_r (Metrics.to_prometheus metrics))
        | Wire.Health ->
          k
            (Wire.Json_r
               (Json.Obj
                  [
                    ("schema", Json.String "compserve-health/1");
                    ("status", Json.String "ok");
                    ("protocol", Json.Int Wire.protocol_version);
                    ("shards", Json.Int (Array.length snaps));
                    ("streams", Json.Int streams);
                    ("uptime_s", Json.Float (Clock.now_wall () -. t.born));
                    ( "span_rate",
                      match t.span_rate with
                      | Some r -> Json.Float r
                      | None -> Json.Null );
                  ]))
        | Wire.Slow threshold ->
          let keep =
            match threshold with
            | None -> fun _ -> true
            | Some thr -> fun e -> slow_wall_us e >= thr *. 1e6
          in
          let events = List.filter keep (Recorder.events slow) in
          k
            (Wire.Json_r
               (Json.Obj
                  [
                    ("schema", Json.String "compserve-slow/1");
                    ( "threshold_ms",
                      Json.Float
                        ((match threshold with
                         | Some thr -> thr
                         | None -> 0.0)
                        *. 1e3) );
                    ("count", Json.Int (List.length events));
                    ("events", Json.List (List.map slow_event_json events));
                  ]))
        | Wire.Open _ | Wire.Append _ | Wire.Verdict _ | Wire.Explain _
        | Wire.Close _ ->
          assert false)

(* Admin requests fan a snapshot hook out to every shard and assemble the
   merged answer once the last contribution lands; everything else rides
   its stream's home shard, which is what gives one stream a
   single-threaded history of appends. *)
let submit t (req : Wire.request) k =
  match req with
  | Wire.Stats | Wire.Metrics | Wire.Health | Wire.Slow _ -> admin t req k
  | Wire.Open { stream; _ } | Wire.Append { stream; _ } | Wire.Verdict stream
  | Wire.Explain stream | Wire.Close stream ->
    submit_shard t
      (Repro_par.Shards.shard_index t.pool stream)
      (Req { req; enq = Clock.now_wall (); k })

let request t req =
  let mu = Mutex.create () in
  let cv = Condition.create () in
  let slot = ref None in
  submit t req (fun r ->
      Mutex.lock mu;
      slot := Some r;
      Condition.signal cv;
      Mutex.unlock mu);
  Mutex.lock mu;
  while !slot = None do
    Condition.wait cv mu
  done;
  let r = match !slot with Some r -> r | None -> assert false in
  Mutex.unlock mu;
  r

let drain t = Repro_par.Shards.drain t.pool

(* Shard registries are written lock-free on their worker domains, so a
   coherent merged snapshot is only guaranteed once the queues are idle;
   benches and post-drain reporting call this between phases, with
   happens-before established by the completion callbacks they already
   waited on. *)
let metrics_snapshot t =
  let into = Metrics.create () in
  Array.iter (fun sh -> Metrics.merge ~into sh.metrics) t.state;
  into

let spans_snapshot t =
  let into =
    match t.span_rate with
    | Some rate -> Span.create ~rate ()
    | None -> Span.null
  in
  Array.iter (fun sh -> Span.drain ~into sh.spans) t.state;
  into
