(* minishell: a pipe-capable shell built entirely on spawn-style creation
   -- no raw fork anywhere. The shell is fork's home turf in the paper's
   telling; this example shows the spawn API covers it: pipelines, output
   redirection and PATH lookup are all file actions + argv.

     dune exec examples/minishell.exe                 # run the demo script
     dune exec examples/minishell.exe -- -c 'echo hi | cat'
*)

let path_dirs = [ "/bin"; "/usr/bin"; "/sbin"; "/usr/sbin" ]

let resolve prog =
  if String.contains prog '/' then Some prog
  else
    List.find_map
      (fun dir ->
        let candidate = Filename.concat dir prog in
        if Sys.file_exists candidate then Some candidate else None)
      path_dirs

let tokens line =
  String.split_on_char ' ' line |> List.filter (fun t -> t <> "")

(* One stage: argv plus an optional '> file' redirect (only honoured on
   the last stage, like a real shell). *)
type stage = { argv : string list; redirect : string option }

let parse_stage text =
  let rec split_redirect acc = function
    | [] -> { argv = List.rev acc; redirect = None }
    | [ ">"; file ] -> { argv = List.rev acc; redirect = Some file }
    | tok :: rest -> split_redirect (tok :: acc) rest
  in
  split_redirect [] (tokens text)

let parse line = String.split_on_char '|' line |> List.map parse_stage

let run_line line =
  Printf.printf "minishell$ %s\n" line;
  let stages = parse line in
  let valid =
    List.for_all (fun s -> s.argv <> []) stages && stages <> []
  in
  if not valid then print_endline "  parse error"
  else begin
    let resolved =
      List.map
        (fun s ->
          match s.argv with
          | [] -> Error "empty command"
          | prog :: _ -> (
            match resolve prog with
            | Some path -> Ok { s with argv = path :: List.tl s.argv }
            | None -> Error (prog ^ ": command not found")))
        stages
    in
    match
      List.fold_right
        (fun r acc ->
          match (r, acc) with
          | Ok s, Ok rest -> Ok (s :: rest)
          | Error e, _ | _, Error e -> Error e)
        resolved (Ok [])
    with
    | Error msg -> Printf.printf "  %s\n" msg
    | Ok stages -> (
      let cmds =
        List.map
          (fun s ->
            { Spawnlib.Pipeline.prog = List.hd s.argv; argv = s.argv })
          stages
      in
      let redirect = (List.nth stages (List.length stages - 1)).redirect in
      match redirect with
      | Some file -> (
        (* re-spawn the last stage with its stdout redirected *)
        match
          Spawnlib.Pipeline.run_capture cmds
        with
        | Error e -> Printf.printf "  error: %s\n" (Spawnlib.Spawn.error_message e)
        | Ok (out, _) ->
          let oc = open_out file in
          output_string oc out;
          close_out oc;
          Printf.printf "  (%d bytes -> %s)\n" (String.length out) file)
      | None -> (
        match Spawnlib.Pipeline.run_capture cmds with
        | Error e -> Printf.printf "  error: %s\n" (Spawnlib.Spawn.error_message e)
        | Ok (out, statuses) ->
          print_string out;
          (* a stage whose reader exited first dies of SIGPIPE, or not,
             depending on which ran first; like a POSIX shell, take the
             pipeline's status from its last stage and do not count that
             death as a failure *)
          let last = List.length statuses - 1 in
          let failed =
            List.filteri
              (fun i st ->
                match st with
                | Spawnlib.Process.Exited 0 -> false
                | Spawnlib.Process.Signaled s -> i = last || s <> Sys.sigpipe
                | _ -> true)
              statuses
          in
          if failed <> [] then
            Printf.printf "  (pipeline had %d failing stage(s))\n"
              (List.length failed)))
  end

let demo_script =
  [
    "echo hello from minishell";
    "echo one two three | cat";
    "echo swallowed | true";
    "printf a\\nb\\nc | sort | cat";
    "nosuchcommand --at all";
    "echo persisted > /tmp/minishell-demo.txt";
    "cat /tmp/minishell-demo.txt";
  ]

let () =
  match Array.to_list Sys.argv with
  | _ :: "-c" :: line :: _ -> run_line line
  | _ ->
    List.iter run_line demo_script;
    (try Sys.remove "/tmp/minishell-demo.txt" with Sys_error _ -> ())
