(* perfbench's OCaml half.  Subcommands:

     pb gen --workload W --seed N --out DIR
         write the workload's inputs under DIR and print their sizes;
     pb replay --workload W --seed N --streams K --budget SECONDS
         the traced run's in-process layer replay (one JSON line);
     pb spin --reps N
         the CPU noise floor: seconds per fixed counting loop, one a line.

   run.py drives all three; the programs under test only ever see the
   generated text. *)

let arg name =
  let rec find = function
    | k :: v :: _ when k = name -> Some v
    | _ :: rest -> find rest
    | [] -> None
  in
  find (Array.to_list Sys.argv)

let req name =
  match arg name with
  | Some v -> v
  | None ->
    Printf.eprintf "pb: missing %s\n" name;
    exit 2

let int_arg name = int_of_string (req name)

let spin reps =
  for _ = 1 to reps do
    let t0 = Repro_obs.Clock.now_wall () in
    let r = ref 0 in
    for i = 1 to 100_000_000 do
      r := !r + (i land 7)
    done;
    Printf.printf "%.6f %d\n%!" (Repro_obs.Clock.now_wall () -. t0) (!r land 1)
  done

let () =
  match Array.to_list Sys.argv with
  | _ :: "gen" :: _ ->
    let t = Inputs.generate ~workload:(req "--workload") ~seed:(int_arg "--seed") in
    Inputs.write ~dir:(req "--out") t;
    print_endline
      (Repro_obs.Json.to_string
         (Repro_obs.Json.Obj
            (List.map (fun (k, v) -> (k, Repro_obs.Json.Int v)) (Inputs.sizes t))))
  | _ :: "replay" :: _ ->
    Replay.run ~workload:(req "--workload") ~seed:(int_arg "--seed")
      ~streams:(int_arg "--streams")
      ~budget:(float_of_string (req "--budget"))
  | _ :: "spin" :: _ -> spin (int_arg "--reps")
  | _ ->
    prerr_endline "usage: pb (gen|replay|spin) ...";
    exit 2
