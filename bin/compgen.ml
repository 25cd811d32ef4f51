(* compgen: emit random composite executions in the history description
   language, for fuzzing and for feeding compcheck. *)
open Cmdliner
open Repro_workload

let run shape seed roots levels branches schedules conflict out =
  match
    Option.map Repro_histlang.Syntax.spec_of_string conflict
  with
  | exception Repro_histlang.Syntax.Parse_error e ->
    Fmt.epr "compgen: --conflict: %a@." Repro_histlang.Syntax.pp_error e;
    2
  | conflict ->
  let rng = Prng.create ~seed in
  let history =
    match shape with
    | "flat" -> Ok (Gen.flat rng ?conflict ~roots)
    | "stack" -> Ok (Gen.stack rng ?conflict ~levels ~roots)
    | "fork" -> Ok (Gen.fork rng ?conflict ~branches ~roots)
    | "join" -> Ok (Gen.join rng ?conflict ~branches ~roots:(max roots branches))
    | "general" -> Ok (Gen.general rng ?conflict ~schedules ~roots)
    | other -> Error other
  in
  match history with
  | Error other ->
    Fmt.epr "compgen: unknown shape %S (flat|stack|fork|join|general)@." other;
    2
  | Ok h ->
    let text = Repro_histlang.Syntax.to_string h in
    (match out with
    | None -> print_string text
    | Some path -> Cli_common.write_file path text);
    0

let shape_arg =
  let doc = "Configuration shape: flat, stack, fork, join, or general." in
  Arg.(value & opt string "general" & info [ "s"; "shape" ] ~docv:"SHAPE" ~doc)

let seed_arg =
  let doc = "Random seed (generation is deterministic per seed)." in
  Arg.(value & opt int 1 & info [ "seed" ] ~docv:"N" ~doc)

let roots_arg =
  let doc = "Number of root transactions." in
  Arg.(value & opt int 3 & info [ "roots" ] ~docv:"N" ~doc)

let levels_arg =
  let doc = "Stack depth (stack shape only)." in
  Arg.(value & opt int 3 & info [ "levels" ] ~docv:"N" ~doc)

let branches_arg =
  let doc = "Branch count (fork and join shapes)." in
  Arg.(value & opt int 2 & info [ "branches" ] ~docv:"N" ~doc)

let schedules_arg =
  let doc = "Schedule count (general shape)." in
  Arg.(value & opt int 4 & info [ "schedules" ] ~docv:"N" ~doc)

let conflict_arg =
  let doc =
    "Conflict specification for the generated schedules, in .ct syntax: \
     never, always, rw, same-item, counter, queue, set, escrow, \
     table(...), or adt(...).  The shape decides which schedules it \
     replaces (stack: the bottom store; fork: the branches; join: the \
     joined store; flat and general: all of them); leaf labels are drawn \
     from the spec's vocabulary.  Default keeps each generator's stock \
     specs."
  in
  Arg.(
    value
    & opt (some string) None
    & info [ "c"; "conflict" ] ~docv:"SPEC" ~doc)

let out_arg =
  let doc = "Write to $(docv) instead of standard output." in
  Arg.(value & opt (some string) None & info [ "o"; "output" ] ~docv:"FILE" ~doc)

let cmd =
  let doc = "generate random composite executions" in
  Cmd.v
    (Cmd.info "compgen" ~version:Cli_common.version ~doc)
    Term.(
      const run $ shape_arg $ seed_arg $ roots_arg $ levels_arg $ branches_arg
      $ schedules_arg $ conflict_arg $ out_arg)

let () = exit (Cmd.eval' cmd)
