open Repro_order
open Ids

type error =
  | Cyclic_order of { sched : History.sched_id; which : string; cycle : id list }
  | Unordered_conflict of { sched : History.sched_id; ops : id * id }
  | Log_contradicts_output of { sched : History.sched_id; ops : id * id }
  | Log_contradicts_strong of { sched : History.sched_id; ops : id * id }

let pp_error h ppf e =
  let sname s = (History.schedule h s).History.sname in
  let pn = History.pp_node h in
  match e with
  | Cyclic_order { sched; which; cycle } ->
    Fmt.pf ppf "schedule %s: %s order is cyclic: %a" (sname sched) which
      Fmt.(list ~sep:(any " -> ") pn) cycle
  | Unordered_conflict { sched; ops = o, o' } ->
    Fmt.pf ppf "schedule %s: conflicting operations %a, %a left unordered"
      (sname sched) pn o pn o'
  | Log_contradicts_output { sched; ops = o, o' } ->
    Fmt.pf ppf
      "schedule %s: output claims %a before %a but the log executed them conflicting in the other order"
      (sname sched) pn o pn o'
  | Log_contradicts_strong { sched; ops = o, o' } ->
    Fmt.pf ppf
      "schedule %s: strong output claims %a strictly before %a but the log executed them in the other order"
      (sname sched) pn o pn o'

let check_schedule h (s : History.schedule) errs =
  let errs = ref errs in
  let add e = errs := e :: !errs in
  let cyclic which r =
    match Rel.find_cycle r with
    | Some cycle -> add (Cyclic_order { sched = s.sid; which; cycle })
    | None -> ()
  in
  cyclic "weak-in" s.weak_in;
  cyclic "strong-in" s.strong_in;
  cyclic "weak-out" s.weak_out;
  cyclic "strong-out" s.strong_out;
  (* Condition 1c: every conflicting pair of different transactions is
     ordered one way or the other. *)
  let ops = Array.of_list (History.ops_of_schedule h s.sid) in
  let n = Array.length ops in
  for i = 0 to n - 1 do
    for j = i + 1 to n - 1 do
      let o = ops.(i) and o' = ops.(j) in
      if
        History.conflicts h s.sid o o'
        && (not (Rel.mem o o' s.weak_out))
        && not (Rel.mem o' o s.weak_out)
      then add (Unordered_conflict { sched = s.sid; ops = (o, o') })
    done
  done;
  (* The log, when present, must agree with the weak output order on
     conflicting pairs and with the strong output order on every pair. *)
  (match s.log with
  | [] -> ()
  | log ->
    let pos = Hashtbl.create 16 in
    List.iteri (fun i o -> Hashtbl.replace pos o i) log;
    Rel.iter
      (fun o o' ->
        if History.conflicts h s.sid o o' then
          match (Hashtbl.find_opt pos o, Hashtbl.find_opt pos o') with
          | Some i, Some j when i > j ->
            add (Log_contradicts_output { sched = s.sid; ops = (o, o') })
          | _ -> ())
      s.weak_out;
    Rel.iter
      (fun o o' ->
        match (Hashtbl.find_opt pos o, Hashtbl.find_opt pos o') with
        | Some i, Some j when i > j ->
          add (Log_contradicts_strong { sched = s.sid; ops = (o, o') })
        | _ -> ())
      s.strong_out);
  !errs

let check h =
  List.rev (List.fold_left (fun acc s -> check_schedule h s acc) [] (History.schedules h))

let is_valid h = check h = []

(* ------------------------------------------------------------------ *)
(* Lints: legal histories that silently hit a pessimistic default      *)
(* ------------------------------------------------------------------ *)

type warning =
  | Unknown_op_name of { sched : string; name : string; count : int }
  | Explicit_lock_fallback

let pp_warning ppf = function
  | Unknown_op_name { sched; name; count } ->
    Fmt.pf ppf
      "schedule %s: operation name %S is not recognized by its conflict \
       specification (%d occurrence%s fall%s to the pessimistic default)"
      sched name count
      (if count = 1 then "" else "s")
      (if count = 1 then "s" else "")
  | Explicit_lock_fallback ->
    Fmt.pf ppf
      "lock table over an 'explicit' conflict specification: node pairs \
       have no label-level meaning, so every label pair is treated as \
       conflicting and the component serializes completely"

let lint h =
  List.concat_map
    (fun (s : History.schedule) ->
      if not (Conflict.discriminates s.conflict) then []
      else begin
        let counts = Hashtbl.create 8 in
        let order = ref [] in
        List.iter
          (fun o ->
            let name = (History.label h o).Label.name in
            if not (Conflict.known_name s.conflict name) then
              match Hashtbl.find_opt counts name with
              | Some n -> Hashtbl.replace counts name (n + 1)
              | None ->
                Hashtbl.add counts name 1;
                order := name :: !order)
          (History.ops_of_schedule h s.sid);
        List.rev_map
          (fun name ->
            Unknown_op_name
              { sched = s.sname; name; count = Hashtbl.find counts name })
          !order
      end)
    (History.schedules h)

(* One process-wide warning the first time a lock table is built over an
   [Explicit] spec (see [Lock.create]); [Atomic] because the simulator's
   components are driven from several domains. *)
let explicit_fallback_warned = Atomic.make false

let warn_explicit_fallback () =
  if not (Atomic.exchange explicit_fallback_warned true) then
    Fmt.epr "validate: warning: %a@." pp_warning Explicit_lock_fallback
