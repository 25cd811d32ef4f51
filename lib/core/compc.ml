open Repro_model
open Repro_order.Ids

type verdict = {
  history : History.t;
  relations : Observed.relations;
  certificate : Reduction.certificate;
}

(* The certificate is read first: on a truncated session it restores the
   dense state, and the relations read after it are the whole history's. *)
let of_session s =
  let certificate = Engine.certificate s in
  {
    history = Option.get (Engine.history s);
    relations = Option.get (Engine.relations s);
    certificate;
  }

(* One-shot use of the engine: a fresh session, advanced once.
   [Engine.analyze] forces the certificate and emits the compc.* check
   metrics. *)
let check ?(metrics = Repro_obs.Metrics.null) history =
  of_session (Engine.of_history ~obs:(Repro_obs.Sink.v ~metrics ()) history)

let is_correct_verdict v = Reduction.is_correct v.certificate

let is_correct ?metrics h = is_correct_verdict (check ?metrics h)

let serial_order v =
  match v.certificate.Reduction.outcome with
  | Ok serial -> serial
  | Error _ -> invalid_arg "Compc.serial_order: execution is not Comp-C"

let failure v =
  match v.certificate.Reduction.outcome with Ok _ -> None | Error f -> Some f

let pp_front_detail h rel ppf (f : Front.t) =
  let pn = History.pp_node h in
  let pp_pairs ppf r =
    Fmt.(list ~sep:(any ",@ ") (pair ~sep:(any " < ") pn pn)) ppf (Repro_order.Rel.to_list r)
  in
  Fmt.pf ppf "@[<v 2>level %d front: {%a}" f.Front.index
    Fmt.(list ~sep:comma pn)
    (Int_set.elements f.Front.members);
  if not (Repro_order.Rel.is_empty f.Front.obs) then
    Fmt.pf ppf "@ observed order: %a" pp_pairs f.Front.obs;
  if not (Repro_order.Rel.is_empty f.Front.inp) then
    Fmt.pf ppf "@ input orders:   %a" pp_pairs f.Front.inp;
  (match Front.conflict_pairs h rel f with
  | [] -> ()
  | pairs ->
    Fmt.pf ppf "@ conflicts:      %a"
      Fmt.(list ~sep:(any ",@ ") (pair ~sep:(any " ~ ") pn pn))
      pairs);
  Fmt.pf ppf "@]"

let explain ppf v =
  let h = v.history in
  let pn = History.pp_node h in
  Fmt.pf ppf "composite system of order %d (%d schedules, %d nodes)@."
    (History.order h) (History.n_schedules h) (History.n_nodes h);
  Fmt.pf ppf "%a@." (pp_front_detail h v.relations) v.certificate.Reduction.initial;
  List.iter
    (fun (s : Reduction.step) ->
      Fmt.pf ppf "step %d: witness layout %a@." s.Reduction.level
        Fmt.(list ~sep:(any " ") pn)
        s.Reduction.layout;
      Fmt.pf ppf "%a@." (pp_front_detail h v.relations) s.Reduction.front)
    v.certificate.Reduction.steps;
  match v.certificate.Reduction.outcome with
  | Ok serial ->
    Fmt.pf ppf "verdict: Comp-C; serial root order: %a@."
      Fmt.(list ~sep:(any " << ") pn)
      serial
  | Error f ->
    Fmt.pf ppf "verdict: NOT Comp-C; %a@."
      (Reduction.pp_failure ~rel:v.relations h)
      f
