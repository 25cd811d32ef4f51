open Repro_model
module B = History.Builder

type error = { line : int; message : string }

exception Parse_error of error

let pp_error ppf e = Fmt.pf ppf "line %d: %s" e.line e.message

let fail line fmt = Fmt.kstr (fun message -> raise (Parse_error { line; message })) fmt

(* ------------------------------------------------------------------ *)
(* Lexer                                                               *)
(* ------------------------------------------------------------------ *)

type token =
  | Name of string
  | Punct of char (* @ ( ) , / : < = ; *)
  | Bang

type ltoken = { tok : token; line : int }

let is_name_char c =
  (c >= 'a' && c <= 'z')
  || (c >= 'A' && c <= 'Z')
  || (c >= '0' && c <= '9')
  || c = '_' || c = '.' || c = '\'' || c = '-'

let lex src =
  let n = String.length src in
  let toks = ref [] in
  let line = ref 1 in
  let i = ref 0 in
  while !i < n do
    let c = src.[!i] in
    if c = '\n' then begin
      incr line;
      incr i
    end
    else if c = ' ' || c = '\t' || c = '\r' then incr i
    else if c = '#' then begin
      while !i < n && src.[!i] <> '\n' do
        incr i
      done
    end
    else if is_name_char c then begin
      let start = !i in
      while !i < n && is_name_char src.[!i] do
        incr i
      done;
      toks := { tok = Name (String.sub src start (!i - start)); line = !line } :: !toks
    end
    else if c = '!' then begin
      toks := { tok = Bang; line = !line } :: !toks;
      incr i
    end
    else if String.contains "@(),/:<=;" c then begin
      toks := { tok = Punct c; line = !line } :: !toks;
      incr i
    end
    else fail !line "unexpected character %C" c
  done;
  List.rev !toks

(* ------------------------------------------------------------------ *)
(* Parser                                                              *)
(* ------------------------------------------------------------------ *)

(* AST: items in source order.  Node identifiers are assigned by
   declaration order, which lets explicit conflict pairs be resolved after
   the scan. *)
type ast_spec =
  | Simple of Conflict.spec
  | Explicit_names of (string * string) list * int (* line *)

type item =
  | I_schedule of string * ast_spec
  | I_root of string * string * Label.t * int
  | I_tx of string * string * string * Label.t * int
  | I_leaf of string * string * Label.t * int
  | I_order of bool * string * string * int (* strong, a, b, line *)
  | I_intra of bool * string * string * int
  | I_input of bool * string * string * int
  | I_log of string * string list * int

type pstate = { mutable toks : ltoken list }

let peek st = match st.toks with [] -> None | t :: _ -> Some t

let next st =
  match st.toks with
  | [] -> fail 0 "unexpected end of input"
  | t :: rest ->
    st.toks <- rest;
    t

let expect_name st what =
  let t = next st in
  match t.tok with
  | Name s -> (s, t.line)
  | _ -> fail t.line "expected %s" what

let expect_punct st c =
  let t = next st in
  match t.tok with
  | Punct c' when c = c' -> ()
  | Name n -> fail t.line "expected %C, found %S" c n
  | _ -> fail t.line "expected %C" c

(* label := NAME [ "(" args ")" ] *)
let parse_label st =
  let name, l = expect_name st "a label" in
  match peek st with
  | Some { tok = Punct '('; _ } ->
    ignore (next st);
    let rec args acc =
      let t = next st in
      match t.tok with
      | Punct ')' -> List.rev acc
      | Name a -> (
        let t2 = next st in
        match t2.tok with
        | Punct ',' -> args (a :: acc)
        | Punct ')' -> List.rev (a :: acc)
        | _ -> fail t2.line "expected ',' or ')' in label arguments")
      | _ -> fail t.line "expected argument or ')'"
    in
    (Label.v ~args:(args []) name, l)
  | _ -> (Label.v name, l)

let parse_name_pairs st =
  expect_punct st '(';
  let rec go acc =
    let t = next st in
    match t.tok with
    | Punct ')' -> List.rev acc
    | Name a ->
      expect_punct st '/';
      let b, _ = expect_name st "a pair member" in
      (match peek st with
      | Some { tok = Punct ','; _ } -> ignore (next st)
      | _ -> ());
      go ((a, b) :: acc)
    | _ -> fail t.line "expected name pair or ')'"
  in
  go []

let parse_cond line = function
  | "always" -> Adt.Always
  | "item" -> Adt.Item
  | "args" -> Adt.Args
  | "range" -> Adt.Range
  | s -> fail line "unknown commutativity condition %S (expected always, item, args or range)" s

(* adt decl := "(" [class ("," class)*] [";" [rule ("," rule)*]] ")"
   class    := NAME "=" NAME ("/" NAME)*
   rule     := NAME "/" NAME "=" cond *)
let parse_adt_decl st =
  expect_punct st '(';
  let rec ops acc =
    let o, _ = expect_name st "an operation name" in
    match peek st with
    | Some { tok = Punct '/'; _ } ->
      ignore (next st);
      ops (o :: acc)
    | _ -> List.rev (o :: acc)
  in
  let rec classes acc =
    match peek st with
    | Some { tok = Punct ')'; _ } ->
      ignore (next st);
      (List.rev acc, false)
    | Some { tok = Punct ';'; _ } ->
      ignore (next st);
      (List.rev acc, true)
    | _ ->
      let cls, _ = expect_name st "a class name" in
      expect_punct st '=';
      let members = ops [] in
      let acc = (cls, members) :: acc in
      let t = next st in
      (match t.tok with
      | Punct ',' -> classes acc
      | Punct ';' -> (List.rev acc, true)
      | Punct ')' -> (List.rev acc, false)
      | _ -> fail t.line "expected ',', ';' or ')' in adt classes")
  in
  let classes, have_rules = classes [] in
  let rec rules acc =
    match peek st with
    | Some { tok = Punct ')'; _ } ->
      ignore (next st);
      List.rev acc
    | _ ->
      let x, _ = expect_name st "a class name" in
      expect_punct st '/';
      let y, _ = expect_name st "a class name" in
      expect_punct st '=';
      let c, lc = expect_name st "a commutativity condition" in
      let acc = (x, y, parse_cond lc c) :: acc in
      (match peek st with
      | Some { tok = Punct ','; _ } -> ignore (next st)
      | _ -> ());
      rules acc
  in
  let rules = if have_rules then rules [] else [] in
  { Adt.classes; rules }

let parse_spec st line =
  let s, l = expect_name st "a conflict specification" in
  match s with
  | "rw" -> Simple Conflict.Rw
  | "never" -> Simple Conflict.Never
  | "always" -> Simple Conflict.Always
  | "same-item" -> Simple Conflict.Same_item
  | "table" -> Simple (Conflict.Table (parse_name_pairs st))
  | "explicit" -> Explicit_names (parse_name_pairs st, line)
  | "counter" -> Simple (Conflict.Adt Adt.Counter)
  | "queue" -> Simple (Conflict.Adt Adt.Queue)
  | "set" -> Simple (Conflict.Adt Adt.Set)
  | "escrow" -> Simple (Conflict.Adt Adt.Escrow)
  | "adt" -> Simple (Conflict.Adt (Adt.Custom (parse_adt_decl st)))
  | _ -> fail (max line l) "unknown conflict specification %S" s

let parse_bang st =
  match peek st with
  | Some { tok = Bang; _ } ->
    ignore (next st);
    true
  | _ -> false

let parse_rel_pair st =
  expect_punct st ':';
  let a, _ = expect_name st "a node" in
  expect_punct st '<';
  let b, _ = expect_name st "a node" in
  (a, b)

let keywords = [ "schedule"; "root"; "tx"; "leaf"; "order"; "intra"; "input"; "log" ]

let rec parse_items st acc =
  match peek st with
  | None -> List.rev acc
  | Some { tok; line } ->
    let item =
      match tok with
      | Name "schedule" ->
        ignore (next st);
        let name, l = expect_name st "a schedule name" in
        let kw, lk = expect_name st "'conflict'" in
        if kw <> "conflict" then fail lk "expected 'conflict'";
        I_schedule (name, parse_spec st l)
      | Name "root" ->
        ignore (next st);
        let name, _ = expect_name st "a node name" in
        expect_punct st '@';
        let sname, _ = expect_name st "a schedule name" in
        let lbl, l = parse_label st in
        I_root (name, sname, lbl, l)
      | Name "tx" ->
        ignore (next st);
        let name, _ = expect_name st "a node name" in
        expect_punct st '@';
        let sname, _ = expect_name st "a schedule name" in
        let kw, lk = expect_name st "'parent'" in
        if kw <> "parent" then fail lk "expected 'parent'";
        let pname, _ = expect_name st "a parent node" in
        let lbl, l = parse_label st in
        I_tx (name, sname, pname, lbl, l)
      | Name "leaf" ->
        ignore (next st);
        let name, _ = expect_name st "a node name" in
        let kw, lk = expect_name st "'parent'" in
        if kw <> "parent" then fail lk "expected 'parent'";
        let pname, _ = expect_name st "a parent node" in
        let lbl, l = parse_label st in
        I_leaf (name, pname, lbl, l)
      | Name "order" ->
        ignore (next st);
        let strong = parse_bang st in
        let _sname, l = expect_name st "a schedule name" in
        let a, b = parse_rel_pair st in
        I_order (strong, a, b, l)
      | Name "intra" ->
        ignore (next st);
        let strong = parse_bang st in
        let a, b = parse_rel_pair st in
        I_intra (strong, a, b, line)
      | Name "input" ->
        ignore (next st);
        let strong = parse_bang st in
        let a, b = parse_rel_pair st in
        I_input (strong, a, b, line)
      | Name "log" ->
        ignore (next st);
        let sname, l = expect_name st "a schedule name" in
        expect_punct st ':';
        let rec ops acc =
          match peek st with
          | Some { tok = Name n; _ } when not (List.mem n keywords) ->
            ignore (next st);
            ops (n :: acc)
          | _ -> List.rev acc
        in
        I_log (sname, ops [], l)
      | Bang -> fail line "unexpected '!'"
      | Name other -> fail line "unknown item %S" other
      | Punct c -> fail line "unexpected %C" c
    in
    parse_items st (item :: acc)

module Names = Map.Make (String)

(* Declare [items] into [b].  The items' node names take identifiers from
   [first] up, in declaration order, before anything is declared, so
   references may point forward (explicit conflict pairs, order lines
   before their nodes).  A name resolves against [known] — the names of
   earlier chunks of a stream — first, then the items' own declarations;
   schedules resolve as they are declared, starting from [scheds].
   Returns the items' node names and the schedule table after them. *)
let declare b ~known ~first ~scheds items =
  let node_ids = Hashtbl.create 64 in
  let counter = ref first in
  List.iter
    (fun item ->
      match item with
      | I_root (name, _, _, line) | I_tx (name, _, _, _, line) | I_leaf (name, _, _, line) ->
        if known name <> None || Hashtbl.mem node_ids name then
          fail line "duplicate node %S" name;
        Hashtbl.replace node_ids name !counter;
        incr counter
      | I_schedule _ | I_order _ | I_intra _ | I_input _ | I_log _ -> ())
    items;
  let node line name =
    match known name with
    | Some id -> id
    | None -> (
      match Hashtbl.find_opt node_ids name with
      | Some id -> id
      | None -> fail line "unknown node %S" name)
  in
  let scheds = ref scheds in
  let sched line name =
    match Names.find_opt name !scheds with
    | Some id -> id
    | None -> fail line "unknown schedule %S" name
  in
  List.iter
    (fun item ->
      match item with
      | I_schedule (name, spec) ->
        let conflict =
          match spec with
          | Simple c -> c
          | Explicit_names (pairs, line) ->
            Conflict.Explicit (List.map (fun (a, b) -> (node line a, node line b)) pairs)
        in
        scheds := Names.add name (B.schedule b ~conflict name) !scheds
      | I_root (name, sname, lbl, line) ->
        let id = B.root b ~sched:(sched line sname) lbl in
        assert (id = Hashtbl.find node_ids name)
      | I_tx (name, sname, pname, lbl, line) ->
        let id = B.tx b ~parent:(node line pname) ~sched:(sched line sname) lbl in
        assert (id = Hashtbl.find node_ids name)
      | I_leaf (name, pname, lbl, line) ->
        let id = B.leaf b ~parent:(node line pname) lbl in
        assert (id = Hashtbl.find node_ids name)
      | I_order (strong, a, b', line) ->
        let a = node line a and b' = node line b' in
        if strong then B.strong_out b ~a ~b:b' else B.weak_out b ~a ~b:b'
      | I_intra (strong, a, b', line) ->
        let a = node line a and b' = node line b' in
        if strong then B.intra_strong b ~a ~b:b' else B.intra_weak b ~a ~b:b'
      | I_input (strong, a, b', line) ->
        let a = node line a and b' = node line b' in
        if strong then B.input_strong b ~a ~b:b' else B.input_weak b ~a ~b:b'
      | I_log (sname, ops, line) ->
        B.log b ~sched:(sched line sname) (List.map (node line) ops))
    items;
  (node_ids, !scheds)

let items_of src = parse_items { toks = lex src } []

let parse src =
  let b = B.create () in
  ignore (declare b ~known:(fun _ -> None) ~first:0 ~scheds:Names.empty (items_of src));
  B.seal b

module Session = struct
  type t = {
    history : History.t;
    nodes : int Names.t;  (* node name -> identifier *)
    scheds : int Names.t;  (* schedule name -> its latest declaration *)
  }

  let empty () =
    { history = History.empty (); nodes = Names.empty; scheds = Names.empty }

  let history s = s.history

  let feed s chunk =
    let items = items_of chunk in
    let declared = ref None in
    let history =
      History.extend s.history (fun b ->
          declared :=
            Some
              (declare b
                 ~known:(fun name -> Names.find_opt name s.nodes)
                 ~first:(History.n_nodes s.history) ~scheds:s.scheds items))
    in
    let names, scheds = Option.get !declared in
    { history; nodes = Hashtbl.fold Names.add names s.nodes; scheds }
end

let parse_file path =
  let ic = open_in path in
  let len = in_channel_length ic in
  let src = really_input_string ic len in
  close_in ic;
  parse src

(* A bare conflict specification, for command lines ([compgen --conflict]).
   [explicit] is rejected: its pairs reference node names, which do not
   exist outside a history description. *)
let spec_of_string src =
  let st = { toks = lex src } in
  let spec =
    match parse_spec st 1 with
    | Simple c -> c
    | Explicit_names (_, line) ->
      fail line "explicit specifications reference nodes of a history and cannot stand alone"
  in
  (match st.toks with
  | [] -> ()
  | { line; _ } :: _ -> fail line "trailing input after conflict specification");
  spec

(* ------------------------------------------------------------------ *)
(* Printer                                                             *)
(* ------------------------------------------------------------------ *)

let node_name id = Fmt.str "n%d" id

let print_spec ppf = function
  | Conflict.Rw -> Fmt.string ppf "rw"
  | Conflict.Never -> Fmt.string ppf "never"
  | Conflict.Always -> Fmt.string ppf "always"
  | Conflict.Same_item -> Fmt.string ppf "same-item"
  | Conflict.Table pairs ->
    Fmt.pf ppf "table(%a)"
      Fmt.(list ~sep:(any ",") (pair ~sep:(any "/") string string))
      pairs
  | Conflict.Explicit pairs ->
    Fmt.pf ppf "explicit(%a)"
      Fmt.(
        list ~sep:(any ",")
          (pair ~sep:(any "/") (using node_name string) (using node_name string)))
      pairs
  | Conflict.Adt f -> Adt.pp ppf f

let print ppf h =
  let sname s = (History.schedule h s).History.sname in
  (* Schedules with Explicit specs reference nodes; we print them as
     "never" first and rely on... instead: print explicit specs anyway —
     the parser rejects them; documented limitation, printed for humans. *)
  List.iter
    (fun (s : History.schedule) ->
      Fmt.pf ppf "schedule %s conflict %a@." s.History.sname print_spec
        s.History.conflict)
    (History.schedules h);
  for i = 0 to History.n_nodes h - 1 do
    let n = History.node h i in
    match (n.History.parent, n.History.sched) with
    | None, Some s ->
      Fmt.pf ppf "root %s @@ %s %a@." (node_name i) (sname s) Label.pp n.History.label
    | Some p, Some s ->
      Fmt.pf ppf "tx %s @@ %s parent %s %a@." (node_name i) (sname s) (node_name p)
        Label.pp n.History.label
    | Some p, None ->
      Fmt.pf ppf "leaf %s parent %s %a@." (node_name i) (node_name p) Label.pp
        n.History.label
    | None, None -> assert false
  done;
  for i = 0 to History.n_nodes h - 1 do
    let n = History.node h i in
    Repro_order.Rel.iter
      (fun a b ->
        if Repro_order.Rel.mem a b n.History.intra_strong then
          Fmt.pf ppf "intra! : %s < %s@." (node_name a) (node_name b)
        else Fmt.pf ppf "intra : %s < %s@." (node_name a) (node_name b))
      n.History.intra_weak
  done;
  List.iter
    (fun (s : History.schedule) ->
      let is_root n = History.is_root h n in
      Repro_order.Rel.iter
        (fun a b ->
          if is_root a && is_root b then
            if Repro_order.Rel.mem a b s.History.strong_in then
              Fmt.pf ppf "input! : %s < %s@." (node_name a) (node_name b)
            else Fmt.pf ppf "input : %s < %s@." (node_name a) (node_name b))
        s.History.weak_in;
      if s.History.log <> [] then
        Fmt.pf ppf "log %s : %a@." s.History.sname
          Fmt.(list ~sep:(any " ") (using node_name string))
          s.History.log;
      Repro_order.Rel.iter
        (fun a b ->
          if Repro_order.Rel.mem a b s.History.strong_out then
            Fmt.pf ppf "order! %s : %s < %s@." s.History.sname (node_name a) (node_name b)
          else Fmt.pf ppf "order %s : %s < %s@." s.History.sname (node_name a) (node_name b))
        s.History.weak_out)
    (History.schedules h)

let to_string h = Fmt.str "%a" print h
