(* Causal spans: the "where did the time go" layer, and the repository's
   only tracing layer.

   A collector is single-writer by construction — the transport loop and
   each shard worker own one each — and collectors are combined after the
   fact with {!drain} in a fixed order, the same input-order determinism
   discipline as [Metrics.merge] and [Recorder.absorb].  Identifiers are
   therefore allocated without any cross-domain coordination: every
   collector carries a [tag] that is OR-ed into the high bits of the ids
   it mints, so ids from distinct collectors never collide within one
   trace and a run's id assignment is deterministic (no RNG, no global
   counter). *)

type span = {
  trace : int;
  id : int;
  parent : int; (* 0 = root *)
  name : string;
  cat : string;
  labels : Labels.t;
  t0 : float; (* seconds on the collector's clock *)
  mutable t1 : float; (* neg_infinity while the span is open *)
}

type t = {
  on : bool;
  rate : float;
  tag : int;
  mutable next : int; (* id counter, shared by span and trace ids *)
  mutable rev_spans : span list; (* newest first *)
  mutable n : int;
  (* Ambient trace context: which request the owning domain is currently
     executing, so deeper layers (the engine) can attach their spans
     without threading the context through every signature.  0 = none. *)
  mutable ctx_trace : int;
  mutable ctx_parent : int;
}

(* The tag rides bits 40.. of every id; 2^40 ids per collector and 2^22
   collectors fit comfortably in OCaml's 63-bit ints. *)
let tag_shift = 40

let max_tag = (1 lsl 22) - 1

let create ?(rate = 1.0) ?(tag = 0) () =
  if not (rate >= 0.0 && rate <= 1.0) then
    invalid_arg "Span.create: rate must be within [0,1]";
  if tag < 0 || tag > max_tag then invalid_arg "Span.create: tag out of range";
  {
    on = true;
    rate;
    tag;
    next = 0;
    rev_spans = [];
    n = 0;
    ctx_trace = 0;
    ctx_parent = 0;
  }

let null =
  {
    on = false;
    rate = 0.0;
    tag = 0;
    next = 0;
    rev_spans = [];
    n = 0;
    ctx_trace = 0;
    ctx_parent = 0;
  }

let enabled t = t.on

let rate t = t.rate

let length t = t.n

let fresh_id t =
  t.next <- t.next + 1;
  (t.tag lsl tag_shift) lor t.next

let fresh_trace t = if t.on then fresh_id t else 0

(* Head-based sampling: the keep/drop decision is a pure function of the
   trace id (a SplitMix64-style finalizer down to 16 bits against the
   rate), so every collector a request crosses — client, transport,
   shards — agrees on it without communicating, and a replayed run
   samples the same traces. *)
let mix x =
  let x = x * 0x9E3779B97F4A7C1 land max_int in
  let x = x lxor (x lsr 29) * 0xBF58476D1CE4E5B land max_int in
  x lxor (x lsr 32)

let sampled t trace =
  t.on && trace <> 0
  && (t.rate >= 1.0
     || (t.rate > 0.0
        && float_of_int (mix trace land 0xFFFF) < t.rate *. 65536.0))

(* ---- recording ---- *)

type active = span

let none : active =
  {
    trace = 0;
    id = 0;
    parent = 0;
    name = "";
    cat = "";
    labels = Labels.empty;
    t0 = 0.0;
    t1 = 0.0;
  }

let id (a : active) = a.id

let push t s =
  t.rev_spans <- s :: t.rev_spans;
  t.n <- t.n + 1

let start t ?(parent = 0) ?(cat = "") ?(labels = Labels.empty) ~trace ~ts name
    =
  if not (sampled t trace) then none
  else begin
    let s =
      {
        trace;
        id = fresh_id t;
        parent;
        name;
        cat;
        labels;
        t0 = ts;
        t1 = neg_infinity;
      }
    in
    push t s;
    s
  end

let finish _t (a : active) ~ts = if a != none then a.t1 <- ts

let emit t ?(parent = 0) ?(cat = "") ?(labels = Labels.empty) ~trace ~t0 ~t1
    name =
  if not (sampled t trace) then 0
  else begin
    let id = fresh_id t in
    push t { trace; id; parent; name; cat; labels; t0; t1 };
    id
  end

(* ---- ambient context ---- *)

let set_ctx t ~trace ~parent =
  if t.on then begin
    t.ctx_trace <- trace;
    t.ctx_parent <- parent
  end

let clear_ctx t =
  if t.on then begin
    t.ctx_trace <- 0;
    t.ctx_parent <- 0
  end

let ctx_trace t = t.ctx_trace

let ctx_parent t = t.ctx_parent

(* ---- reading and combining ---- *)

type view = {
  v_trace : int;
  v_id : int;
  v_parent : int;
  v_name : string;
  v_cat : string;
  v_labels : Labels.t;
  v_t0 : float;
  v_t1 : float; (* = v_t0 for spans never finished *)
}

let view_of (s : span) =
  {
    v_trace = s.trace;
    v_id = s.id;
    v_parent = s.parent;
    v_name = s.name;
    v_cat = s.cat;
    v_labels = s.labels;
    v_t0 = s.t0;
    v_t1 = (if s.t1 = neg_infinity then s.t0 else s.t1);
  }

let spans t = List.rev_map view_of t.rev_spans

let drain ~into src =
  if into.on then begin
    (* Keep [src]'s recording order: its list is newest-first, so
       prepending it reversed onto [into]'s newest-first list appends the
       spans oldest-first. *)
    into.rev_spans <- List.rev_append (List.rev src.rev_spans) into.rev_spans;
    into.n <- into.n + src.n;
    src.rev_spans <- [];
    src.n <- 0
  end

(* ---- export ---- *)

let us s = s *. 1e6

let hex id = Json.String (Printf.sprintf "0x%x" id)

let label_fields labels =
  List.map (fun (k, value) -> (k, Json.String value)) (Labels.to_list labels)

(* Chrome groups async events by (cat, id, name): with id = the trace id,
   every span of one trace lands on one track, whichever domain recorded
   it.  The id is rendered as a hex string, the viewer's convention. *)
let chrome_pair (v : view) =
  let event ph ts rest =
    Json.Obj
      ([
         ("name", Json.String v.v_name);
         ("cat", Json.String (if v.v_cat = "" then "span" else v.v_cat));
         ("ph", Json.String ph);
         ("ts", Json.Float (us ts));
         ("pid", Json.Int 0);
         ("tid", Json.Int 0);
         ("id", hex v.v_trace);
       ]
      @ rest)
  in
  let args =
    (("span", hex v.v_id)
     :: (if v.v_parent = 0 then [] else [ ("parent", hex v.v_parent) ]))
    @ label_fields v.v_labels
  in
  [ event "b" v.v_t0 [ ("args", Json.Obj args) ]; event "e" v.v_t1 [] ]

let to_chrome ?process t =
  let meta =
    match process with
    | None -> []
    | Some name ->
      [
        Json.Obj
          [
            ("name", Json.String "process_name");
            ("ph", Json.String "M");
            ("pid", Json.Int 0);
            ("args", Json.Obj [ ("name", Json.String name) ]);
          ];
      ]
  in
  Json.Obj
    [
      ("traceEvents", Json.List (meta @ List.concat_map chrome_pair (spans t)));
      ("displayTimeUnit", Json.String "ms");
    ]

let span_json (v : view) =
  Json.Obj
    ([
       ("trace", Json.String (Printf.sprintf "%x" v.v_trace));
       ("span", Json.String (Printf.sprintf "%x" v.v_id));
     ]
    @ (if v.v_parent = 0 then []
       else [ ("parent", Json.String (Printf.sprintf "%x" v.v_parent)) ])
    @ [
        ("name", Json.String v.v_name);
        ("cat", Json.String v.v_cat);
        ("start_us", Json.Float (us v.v_t0));
        ("dur_us", Json.Float (us (v.v_t1 -. v.v_t0)));
      ]
    @
    if Labels.is_empty v.v_labels then []
    else [ ("labels", Json.Obj (label_fields v.v_labels)) ])

let to_json t =
  Json.Obj
    [
      ("schema", Json.String "spans/1");
      ("spans", Json.List (List.map span_json (spans t)));
    ]
