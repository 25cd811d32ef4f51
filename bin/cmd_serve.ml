(* compserve: a long-running multi-stream certification daemon, plus the
   client that drives it from history files.

   The daemon half is deliberately thin: one select loop owns the Unix
   socket and the per-connection read buffers, and every decoded request
   is handed to {!Repro_runtime.Server}, whose sharded worker domains do
   the certifying and write the response back through the connection's
   write lock.  Responses to one stream therefore come back in request
   order (stream->shard affinity is FIFO); responses to different streams
   multiplexed on one connection may interleave, which is why every
   verdict line carries its stream id.  SIGTERM/SIGINT drain gracefully:
   stop accepting, let the shards finish their queues, flush, exit 0.

   The client half ([--connect]) turns each FILE into a per-root chunk
   stream ({!Repro_runtime.Server.Chunks}), opens one connection and one
   stream per file, and pipelines appends across all files phase by
   phase — so a single invocation exercises genuinely concurrent
   streams — printing one verdict line per certified root in
   [compcheck --monitor]'s format.  Exit 1 iff some stream rejected. *)

module Server = Repro_runtime.Server
module Wire = Repro_runtime.Server.Wire
module Span = Repro_obs.Span
module Clock = Repro_obs.Clock
module Json = Repro_obs.Json

(* ------------------------------------------------------------------ *)
(* Daemon                                                              *)
(* ------------------------------------------------------------------ *)

type conn = {
  fd : Unix.file_descr;
  inbuf : Buffer.t;
  wmu : Mutex.t;  (* serializes worker-domain response writes *)
  mutable alive : bool;  (* guarded by wmu; false once the fd is closed *)
}

let write_all fd s =
  let b = Bytes.of_string s in
  let n = Bytes.length b in
  let rec go off = if off < n then go (off + Unix.write fd b off (n - off)) in
  go 0

(* Response sink for one connection, callable from any shard domain. *)
let respond c resp =
  Mutex.lock c.wmu;
  (if c.alive then
     try write_all c.fd (Wire.encode_response resp)
     with Unix.Unix_error _ -> c.alive <- false);
  Mutex.unlock c.wmu

let close_conn conns c =
  Mutex.lock c.wmu;
  if c.alive then begin
    c.alive <- false;
    (try Unix.close c.fd with Unix.Unix_error _ -> ())
  end;
  Mutex.unlock c.wmu;
  Hashtbl.remove conns c.fd

(* Drain one connection's input buffer of complete frames.  [spans] is
   the transport loop's collector (tag 0): a traced append gets a
   [serve.decode] root span here covering the frame's time in the input
   buffer, and its wire context is rewritten so everything downstream —
   queue wait, engine, encode — parents under that root. *)
let pump_requests ~spans server c =
  let rec go () =
    let buf = Buffer.contents c.inbuf in
    let t0 = if Span.enabled spans then Clock.now_wall () else 0.0 in
    match Wire.decode_request buf ~pos:0 with
    | Wire.Need_more -> ()
    | Wire.Malformed (msg, skip) ->
      respond c (Wire.Err msg);
      let rest = String.sub buf skip (String.length buf - skip) in
      Buffer.clear c.inbuf;
      Buffer.add_string c.inbuf rest;
      go ()
    | Wire.Got (req, consumed) ->
      let rest = String.sub buf consumed (String.length buf - consumed) in
      Buffer.clear c.inbuf;
      Buffer.add_string c.inbuf rest;
      let req =
        match req with
        | Wire.Append { stream; body; ctx = Some ctx }
          when Span.sampled spans ctx.Wire.trace ->
          let did =
            Span.emit spans ~parent:ctx.Wire.parent ~cat:"serve"
              ~labels:(Repro_obs.Labels.v [ ("stream", stream) ])
              ~trace:ctx.Wire.trace ~t0 ~t1:(Clock.now_wall ()) "serve.decode"
          in
          Wire.Append
            { stream; body; ctx = Some { ctx with Wire.parent = did } }
        | req -> req
      in
      Server.submit server req (respond c);
      go ()
  in
  go ()

let serve path shards window span_rate slow_ms trace_out spans_out =
  let span_rate =
    (* Asking for a trace or span dump implies tracing at full rate
       unless a rate was given explicitly. *)
    match (span_rate, trace_out, spans_out) with
    | Some r, _, _ -> Some r
    | None, None, None -> None
    | None, _, _ -> Some 1.0
  in
  let slow_s = Option.map (fun ms -> ms /. 1e3) slow_ms in
  let server = Server.create ?shards ?window ?span_rate ?slow_s () in
  let spans =
    match span_rate with
    | Some rate -> Span.create ~rate ()
    | None -> Span.null
  in
  (try Unix.unlink path with Unix.Unix_error _ -> ());
  let listen_fd = Unix.socket Unix.PF_UNIX Unix.SOCK_STREAM 0 in
  Unix.bind listen_fd (Unix.ADDR_UNIX path);
  Unix.listen listen_fd 64;
  let stop = ref false in
  let on_signal _ = stop := true in
  Sys.set_signal Sys.sigterm (Sys.Signal_handle on_signal);
  Sys.set_signal Sys.sigint (Sys.Signal_handle on_signal);
  (* A worker writing to a client that vanished must not kill the
     daemon. *)
  Sys.set_signal Sys.sigpipe Sys.Signal_ignore;
  Fmt.epr "compserve: listening on %s (%d shards%a)@." path
    (Server.shard_count server)
    Fmt.(option (any ", window " ++ int))
    window;
  let conns : (Unix.file_descr, conn) Hashtbl.t = Hashtbl.create 16 in
  let chunk = Bytes.create 65536 in
  while not !stop do
    let fds = listen_fd :: Hashtbl.fold (fun fd _ acc -> fd :: acc) conns [] in
    match Unix.select fds [] [] 0.25 with
    | exception Unix.Unix_error (Unix.EINTR, _, _) -> ()
    | readable, _, _ ->
      List.iter
        (fun fd ->
          if fd = listen_fd then begin
            match Unix.accept listen_fd with
            | exception Unix.Unix_error _ -> ()
            | cfd, _ ->
              Hashtbl.replace conns cfd
                {
                  fd = cfd;
                  inbuf = Buffer.create 4096;
                  wmu = Mutex.create ();
                  alive = true;
                }
          end
          else
            match Hashtbl.find_opt conns fd with
            | None -> ()
            | Some c -> (
              match Unix.read fd chunk 0 (Bytes.length chunk) with
              | exception Unix.Unix_error _ -> close_conn conns c
              | 0 -> close_conn conns c
              | n ->
                Buffer.add_subbytes c.inbuf chunk 0 n;
                pump_requests ~spans server c))
        readable
  done;
  (* Graceful drain: finish every queued request (responses still flow
     through live connections), then tear the transport down. *)
  Fmt.epr "compserve: draining...@.";
  Server.drain server;
  Hashtbl.iter (fun _ c -> close_conn conns c) (Hashtbl.copy conns);
  (try Unix.close listen_fd with Unix.Unix_error _ -> ());
  (try Unix.unlink path with Unix.Unix_error _ -> ());
  (* Post-drain the shards are joined, so combining their collectors with
     the transport's (shard-index order, transport first) is quiescent
     and deterministic. *)
  if Span.enabled spans then begin
    Span.drain ~into:spans (Server.spans_snapshot server);
    (match trace_out with
    | None -> ()
    | Some file ->
      Cli_common.write_json ~tool:"compserve" file
        (Span.to_chrome ~process:"compserve" spans);
      Fmt.epr "compserve: wrote Chrome trace (%d spans) to %s@."
        (Span.length spans) file);
    match spans_out with
    | None -> ()
    | Some file ->
      Cli_common.write_json ~tool:"compserve" file (Span.to_json spans);
      Fmt.epr "compserve: wrote spans/1 (%d spans) to %s@."
        (Span.length spans) file
  end;
  Fmt.epr "compserve: drained@.";
  0

(* ------------------------------------------------------------------ *)
(* Drive client                                                        *)
(* ------------------------------------------------------------------ *)

type client_stream = {
  file : string;
  sid : string;
  cfd : Unix.file_descr;
  rbuf : Buffer.t;
  preamble : string;
  chunks : string array;
  mutable done_ : bool;  (* rejected or exhausted: no more appends *)
  mutable rejected : bool;
  mutable act : Span.active;  (* in-flight client.append span, if traced *)
}

let read_response cs =
  let chunk = Bytes.create 65536 in
  let rec go () =
    match Wire.decode_response (Buffer.contents cs.rbuf) ~pos:0 with
    | Wire.Got (resp, consumed) ->
      let rest = Buffer.contents cs.rbuf in
      let rest = String.sub rest consumed (String.length rest - consumed) in
      Buffer.clear cs.rbuf;
      Buffer.add_string cs.rbuf rest;
      resp
    | Wire.Malformed (msg, _) -> failwith ("malformed response: " ^ msg)
    | Wire.Need_more -> (
      match Unix.read cs.cfd chunk 0 (Bytes.length chunk) with
      | 0 -> failwith "server closed the connection"
      | n ->
        Buffer.add_subbytes cs.rbuf chunk 0 n;
        go ())
  in
  go ()

let drive path window files trace_out =
  (* The client's span collector: one [client.append] span per request,
     whose trace/span ids ride the wire so the daemon's decode,
     queue-wait, engine and encode spans all join this root's tree. *)
  let spans =
    match trace_out with Some _ -> Span.create () | None -> Span.null
  in
  let streams =
    List.mapi
      (fun i file ->
        match Cli_common.read_history file with
        | Error msg ->
          Fmt.epr "compserve: %s: %s@." file msg;
          exit 2
        | Ok h ->
          let { Server.Chunks.preamble; chunks } = Server.Chunks.of_history h in
          let cfd = Unix.socket Unix.PF_UNIX Unix.SOCK_STREAM 0 in
          Unix.connect cfd (Unix.ADDR_UNIX path);
          {
            file;
            sid = Fmt.str "f%d" i;
            cfd;
            rbuf = Buffer.create 4096;
            preamble;
            chunks = Array.of_list chunks;
            done_ = false;
            rejected = false;
            act = Span.none;
          })
      files
  in
  let fail cs what resp =
    Fmt.epr "compserve: %s: %s: %s@." cs.file what
      (match resp with
      | Wire.Err e -> e
      | _ -> "unexpected response");
    exit 2
  in
  (* Pipelined phases: one request in flight per connection, all
     connections concurrently — the server certifies the streams in
     parallel across its shards. *)
  List.iter
    (fun cs ->
      write_all cs.cfd
        (Wire.encode_request (Wire.Open { stream = cs.sid; window })))
    streams;
  List.iter
    (fun cs ->
      match read_response cs with
      | Wire.Ok -> ()
      | r -> fail cs "open" r)
    streams;
  let max_chunks =
    List.fold_left (fun m cs -> max m (Array.length cs.chunks)) 0 streams
  in
  for k = 0 to max_chunks - 1 do
    let active =
      List.filter (fun cs -> (not cs.done_) && k < Array.length cs.chunks) streams
    in
    List.iter
      (fun cs ->
        let body =
          if k = 0 then cs.preamble ^ cs.chunks.(k) else cs.chunks.(k)
        in
        let ctx =
          let trace = Span.fresh_trace spans in
          if not (Span.sampled spans trace) then None
          else begin
            cs.act <-
              Span.start spans ~cat:"client"
                ~labels:
                  (Repro_obs.Labels.v
                     [ ("file", cs.file); ("chunk", string_of_int (k + 1)) ])
                ~trace ~ts:(Clock.now_wall ()) "client.append";
            Some { Wire.trace; parent = Span.id cs.act }
          end
        in
        write_all cs.cfd
          (Wire.encode_request (Wire.Append { stream = cs.sid; body; ctx })))
      active;
    List.iter
      (fun cs ->
        let resp = read_response cs in
        Span.finish spans cs.act ~ts:(Clock.now_wall ());
        cs.act <- Span.none;
        match resp with
        | Wire.Verdict_r { accepted; detail; _ } ->
          Fmt.pr "%s: prefix %d/%d: %s@." cs.file (k + 1)
            (Array.length cs.chunks)
            (if accepted then "accept" else "reject");
          if not accepted then begin
            (* Match [compcheck --monitor]: stop at the first violating
               prefix. *)
            cs.done_ <- true;
            cs.rejected <- true;
            ignore detail
          end
        | r -> fail cs "append" r)
      active
  done;
  List.iter
    (fun cs ->
      write_all cs.cfd (Wire.encode_request (Wire.Close cs.sid)))
    streams;
  List.iter
    (fun cs ->
      (match read_response cs with
      | Wire.Ok -> ()
      | r -> fail cs "close" r);
      Unix.close cs.cfd)
    streams;
  List.iter
    (fun cs ->
      Fmt.pr "%s: monitor: %s@." cs.file
        (if cs.rejected then "reject" else "accept"))
    streams;
  (match trace_out with
  | None -> ()
  | Some file ->
    Cli_common.write_json ~tool:"compserve" file
      (Span.to_chrome ~process:"compserve-drive" spans);
    Fmt.epr "compserve: wrote Chrome trace (%d spans) to %s@."
      (Span.length spans) file);
  if List.exists (fun cs -> cs.rejected) streams then 1 else 0

(* ------------------------------------------------------------------ *)
(* Admin client                                                        *)
(* ------------------------------------------------------------------ *)

(* One-shot admin request against a live daemon; prints the payload. *)
let admin path cmd =
  let req =
    match String.split_on_char ' ' (String.trim cmd) with
    | [ "stats" ] -> Wire.Stats
    | [ "metrics" ] -> Wire.Metrics
    | [ "health" ] -> Wire.Health
    | [ "slow" ] -> Wire.Slow None
    | [ "slow"; ms ] -> (
      match float_of_string_opt ms with
      | Some v when v >= 0.0 -> Wire.Slow (Some (v /. 1e3))
      | _ ->
        Fmt.epr "compserve: --admin: bad slow threshold %S@." ms;
        exit 2)
    | _ ->
      Fmt.epr
        "compserve: --admin: unknown command %S (expected stats, metrics, \
         health, or slow [MS])@."
        cmd;
      exit 2
  in
  let cfd = Unix.socket Unix.PF_UNIX Unix.SOCK_STREAM 0 in
  Unix.connect cfd (Unix.ADDR_UNIX path);
  write_all cfd (Wire.encode_request req);
  let rbuf = Buffer.create 4096 in
  let chunk = Bytes.create 65536 in
  let rec read_one () =
    match Wire.decode_response (Buffer.contents rbuf) ~pos:0 with
    | Wire.Got (resp, _) -> resp
    | Wire.Malformed (msg, _) -> failwith ("malformed response: " ^ msg)
    | Wire.Need_more -> (
      match Unix.read cfd chunk 0 (Bytes.length chunk) with
      | 0 -> failwith "server closed the connection"
      | n ->
        Buffer.add_subbytes rbuf chunk 0 n;
        read_one ())
  in
  let resp = read_one () in
  Unix.close cfd;
  match resp with
  | Wire.Json_r j ->
    Fmt.pr "%s@." (Json.to_string j);
    0
  | Wire.Text_r payload ->
    print_string payload;
    if payload = "" || payload.[String.length payload - 1] <> '\n' then
      print_newline ();
    0
  | Wire.Ok ->
    Fmt.pr "ok@.";
    0
  | Wire.Verdict_r _ ->
    Fmt.epr "compserve: --admin: unexpected verdict response@.";
    2
  | Wire.Err e ->
    Fmt.epr "compserve: --admin: %s@." e;
    2

(* ------------------------------------------------------------------ *)
(* Command line                                                        *)
(* ------------------------------------------------------------------ *)

open Cmdliner

let run socket connect shards window span_rate slow_ms trace_out spans_out
    admin_cmd files =
  (match span_rate with
  | Some r when not (r >= 0.0 && r <= 1.0) ->
    Fmt.epr "compserve: --trace-rate must be within [0,1]@.";
    exit 2
  | _ -> ());
  (match slow_ms with
  | Some ms when not (ms >= 0.0) ->
    Fmt.epr "compserve: --slow-ms must be non-negative@.";
    exit 2
  | _ -> ());
  match (socket, connect) with
  | Some path, None ->
    if files <> [] then begin
      Fmt.epr "compserve: --socket mode takes no FILE arguments@.";
      2
    end
    else if admin_cmd <> None then begin
      Fmt.epr "compserve: --admin needs --connect@.";
      2
    end
    else serve path shards window span_rate slow_ms trace_out spans_out
  | None, Some path -> (
    match admin_cmd with
    | Some cmd ->
      if files <> [] then begin
        Fmt.epr "compserve: --admin mode takes no FILE arguments@.";
        2
      end
      else admin path cmd
    | None ->
      if files = [] then begin
        Fmt.epr "compserve: --connect mode needs FILE arguments to stream@.";
        2
      end
      else drive path window files trace_out)
  | _ ->
    Fmt.epr "compserve: exactly one of --socket (daemon) or --connect (client) is required@.";
    2

let socket_arg =
  let doc = "Run the daemon: listen for the line protocol on the Unix socket $(docv)." in
  Arg.(value & opt (some string) None & info [ "socket" ] ~docv:"PATH" ~doc)

let connect_arg =
  let doc =
    "Run the client: connect to a daemon on $(docv) and stream each FILE as \
     a per-root chunk sequence on its own concurrent stream, printing one \
     verdict line per certified root."
  in
  Arg.(value & opt (some string) None & info [ "connect" ] ~docv:"PATH" ~doc)

let shards_arg =
  let doc =
    "Daemon mode: worker domains to shard the streams across (default: the \
     machine's recommended domain count, capped at 8).  A stream is pinned \
     to one shard for its whole life, so its appends never migrate."
  in
  Arg.(value & opt (some int) None & info [ "shards" ] ~docv:"N" ~doc)

let window_arg =
  let doc =
    "Truncation window, in nodes.  Daemon mode: the default for every \
     stream; client mode: requested per opened stream.  Once a stream's \
     window holds $(docv) nodes after an accepted append, the certified \
     prefix is folded into a compact summary behind a dense tail of the \
     newest nodes (half the window where the stream allows) and its dense \
     state released, so per-stream resident memory is bounded by the \
     window, not the stream length, until an append reaches into the \
     folded prefix: that restores the prefix's dense state until the \
     next fold."
  in
  Arg.(value & opt (some int) None & info [ "window" ] ~docv:"NODES" ~doc)

let span_rate_arg =
  let doc =
    "Head-sampling rate for request tracing, in [0,1].  The keep/drop \
     decision is a deterministic hash of each request's trace id, so every \
     collector the request crosses agrees without coordination.  Daemon \
     mode only; implies tracing even without $(b,--trace)/$(b,--spans)."
  in
  Arg.(value & opt (some float) None & info [ "trace-rate" ] ~docv:"RATE" ~doc)

let slow_ms_arg =
  let doc =
    "Daemon mode: appends whose engine wall time reaches $(docv) \
     milliseconds land in the slow-request log served by the $(b,slow) \
     admin command (default 100)."
  in
  Arg.(value & opt (some float) None & info [ "slow-ms" ] ~docv:"MS" ~doc)

let trace_arg =
  let doc =
    "Write a Chrome trace_event JSON of every sampled request's span tree \
     to $(docv) — at drain in daemon mode (SIGTERM), at exit in client \
     mode.  Load it in Perfetto: one async track per request, frame decode \
     / queue wait / engine append / verdict encode as nested intervals."
  in
  Arg.(value & opt (some string) None & info [ "trace" ] ~docv:"FILE" ~doc)

let spans_arg =
  let doc =
    "Daemon mode: write the compact spans/1 JSON document of every sampled \
     span to $(docv) at drain."
  in
  Arg.(value & opt (some string) None & info [ "spans" ] ~docv:"FILE" ~doc)

let admin_arg =
  let doc =
    "With $(b,--connect): send one admin request — $(b,stats), \
     $(b,metrics) (Prometheus text exposition), $(b,health), or $(b,slow) \
     [$(i,MS)] (slow-request log, optionally at or above a threshold) — \
     print the payload and exit."
  in
  Arg.(value & opt (some string) None & info [ "admin" ] ~docv:"CMD" ~doc)

let files_arg =
  let doc = "History files to stream (client mode)." in
  Arg.(value & pos_all string [] & info [] ~docv:"FILE" ~doc)

let cmd =
  let doc = "multi-stream certification server (Comp-C over a Unix socket)" in
  let man =
    [
      `S Manpage.s_description;
      `P
        "A long-running certification service: many independent composite \
         executions stream in over one Unix socket, each is certified \
         incrementally (Comp-C, per appended chunk) by a monitored engine \
         session pinned to a worker domain, and with $(b,--window) every \
         session's dense state is bounded by its window between restores, \
         however long its stream grows.  \
         The protocol is a length-prefixed line protocol (version 3): \
         open/append/verdict/explain/close per stream id (an accepted \
         append answers without the serial witness, which verdict \
         returns); stats, metrics \
         (Prometheus), health and slow for the whole server; appends may \
         carry a trace context so one request yields one connected span \
         tree across client, transport, shard queue and engine.  SIGTERM \
         drains gracefully.";
      `S Manpage.s_examples;
      `Pre
        "  compserve --socket /tmp/comp.sock --shards 4 --window 512 \\\\\n\
        \      --trace /tmp/serve.trace.json --slow-ms 50 &\n\
        \  compserve --connect /tmp/comp.sock histories/*.ct\n\
        \  compserve --connect /tmp/comp.sock --admin metrics\n\
        \  compserve --connect /tmp/comp.sock --admin 'slow 25'\n\
        \  kill -TERM %1";
    ]
  in
  Cmd.v
    (Cmd.info "compserve" ~version:Cli_common.version ~doc ~man)
    Term.(
      const run $ socket_arg $ connect_arg $ shards_arg $ window_arg
      $ span_rate_arg $ slow_ms_arg $ trace_arg $ spans_arg $ admin_arg
      $ files_arg)

