(* forkbench — run the forkroad experiments from the command line.

     forkbench list
     forkbench run F1-SIM E3 --quick
     forkbench run fig1-sim --json out.json
     forkbench all
     forkbench stat fig1-sim --trace trace.json *)

open Cmdliner

let quick_flag =
  Arg.(value & flag & info [ "quick"; "q" ] ~doc:"Reduced sample counts/sweeps.")

let format_arg =
  let formats = [ ("text", `Text); ("csv", `Csv) ] in
  Arg.(
    value
    & opt (enum formats) `Text
    & info [ "format"; "f" ] ~docv:"FORMAT"
        ~doc:"Output format: $(b,text) (tables + ASCII charts) or $(b,csv) \
              (machine-readable, for plotting).")

let json_arg =
  Arg.(
    value
    & opt (some string) None
    & info [ "json" ] ~docv:"FILE"
        ~doc:
          "Also write the report(s) as JSON (every block, including the \
           machine-readable data blocks) to $(docv).")

let write_file path contents =
  let oc = open_out path in
  Fun.protect
    ~finally:(fun () -> close_out oc)
    (fun () -> output_string oc contents)

let experiment_json exp report =
  Metrics.Json.obj
    [
      ("exp", Metrics.Json.str exp.Forkroad.Report.exp_id);
      ("slug", Metrics.Json.str (Forkroad.Registry.slug exp));
      ( "kind",
        Metrics.Json.str
          (Forkroad.Report.kind_string exp.Forkroad.Report.exp_kind) );
      ("claim", Metrics.Json.str exp.Forkroad.Report.paper_claim);
      ("report", Forkroad.Report.to_json report);
    ]

let run_experiments ~quick ~format ~json exps =
  Forkroad.Registry.measure_real_first ~quick exps;
  let reports =
    List.map
      (fun exp ->
        let report = exp.Forkroad.Report.run ~quick in
        (match format with
        | `Csv -> print_string (Forkroad.Report.render_csv report)
        | `Text ->
          print_string (Forkroad.Report.render report);
          Printf.printf "paper claim: %s\n\n" exp.Forkroad.Report.paper_claim);
        experiment_json exp report)
      exps
  in
  match json with
  | None -> ()
  | Some path ->
    write_file path
      (Metrics.Json.to_string ~indent:2 (Metrics.Json.arr reports) ^ "\n");
    Printf.eprintf "wrote %s\n%!" path

let list_cmd =
  let doc = "List experiments (id, title, paper claim)." in
  let run () =
    List.iter
      (fun e ->
        Printf.printf "%-7s %s\n        claim: %s\n" e.Forkroad.Report.exp_id
          e.Forkroad.Report.exp_title e.Forkroad.Report.paper_claim)
      Forkroad.Registry.all
  in
  Cmd.v (Cmd.info "list" ~doc) Term.(const run $ const ())

let ids_arg =
  let doc = "Experiment ids (see $(b,forkbench list))." in
  Arg.(non_empty & pos_all string [] & info [] ~docv:"ID" ~doc)

let run_cmd =
  let doc = "Run selected experiments." in
  let run quick format json ids =
    let missing, found =
      List.partition_map
        (fun id ->
          match Forkroad.Registry.find id with
          | Some e -> Right e
          | None -> Left id)
        ids
    in
    match missing with
    | [] ->
      run_experiments ~quick ~format ~json found;
      `Ok ()
    | _ ->
      `Error
        ( false,
          Printf.sprintf "unknown experiment(s): %s (known: %s)"
            (String.concat ", " missing)
            (String.concat ", " Forkroad.Registry.ids) )
  in
  Cmd.v (Cmd.info "run" ~doc)
    Term.(ret (const run $ quick_flag $ format_arg $ json_arg $ ids_arg))

let all_cmd =
  let doc = "Run every experiment in paper order." in
  let run quick format json =
    run_experiments ~quick ~format ~json Forkroad.Registry.all
  in
  Cmd.v (Cmd.info "all" ~doc)
    Term.(const run $ quick_flag $ format_arg $ json_arg)

let stat_cmd =
  let doc =
    "Run a canned simulator scenario and print where the cycles went: \
     per-subsystem and per-category cost breakdowns, kernel counters \
     (kstat) and a syscall-latency histogram."
  in
  let scenario_arg =
    let keys = String.concat ", " (List.map fst Forkroad.Stat_driver.scenarios) in
    Arg.(
      value
      & pos 0 (some string) None
      & info [] ~docv:"SCENARIO"
          ~doc:(Printf.sprintf "Scenario to profile (one of: %s)." keys))
  in
  let cpus_arg =
    Arg.(
      value & opt int 1
      & info [ "cpus" ] ~docv:"N"
          ~doc:
            "Simulated CPU count. With $(docv) > 1 the scenario boots the \
             SMP kernel and the report adds a per-CPU counter table and the \
             shootdown-fanout histogram.")
  in
  let trace_arg =
    Arg.(
      value
      & opt (some string) None
      & info [ "trace" ] ~docv:"FILE"
          ~doc:
            "Write the run's span trace in Chrome trace_event format to \
             $(docv) (load in Perfetto or about://tracing).")
  in
  let lanes_arg =
    Arg.(
      value
      & opt (enum [ ("pid", `Pid); ("cpu", `Cpu) ]) `Pid
      & info [ "lanes" ] ~docv:"LANES"
          ~doc:
            "Row grouping for the $(b,--trace) export: $(b,pid) (one lane \
             per process, the default) or $(b,cpu) (one lane per simulated \
             CPU — shows placement, steals and migrations).")
  in
  let jsonl_arg =
    Arg.(
      value
      & opt (some string) None
      & info [ "jsonl" ] ~docv:"FILE"
          ~doc:"Write the run's span trace as JSON-lines to $(docv).")
  in
  let flame_arg =
    Arg.(
      value
      & opt (some string) None
      & info [ "flame" ] ~docv:"FILE"
          ~doc:
            "Write a folded-stack flamegraph (process tree $(i,x) subsystem \
             groups; feed to flamegraph.pl or speedscope) to $(docv), or \
             stdout when $(docv) is $(b,-).")
  in
  let critical_path_flag =
    Arg.(
      value & flag
      & info [ "critical-path" ]
          ~doc:
            "Also print the critical-path report: the chain of processes \
             bounding end-to-end simulated time.")
  in
  let run scenario cpus json trace lanes jsonl flame critical_path =
    match scenario with
    | None ->
      Printf.printf "available scenarios:\n";
      List.iter
        (fun (k, d) -> Printf.printf "  %-10s %s\n" k d)
        Forkroad.Stat_driver.scenarios;
      `Ok ()
    | Some key -> (
      match Forkroad.Stat_driver.run ~cpus key with
      | None ->
        `Error
          ( false,
            Printf.sprintf "unknown scenario %S (known: %s)" key
              (String.concat ", "
                 (List.map fst Forkroad.Stat_driver.scenarios)) )
      | Some { Forkroad.Stat_driver.report; trace = tr; machine } ->
        print_string (Forkroad.Report.render report);
        let tree = lazy (Profile.Span_tree.build machine) in
        if critical_path then
          print_string (Profile.Critical_path.render (Lazy.force tree) ^ "\n");
        (match flame with
        | None -> ()
        | Some "-" -> print_string (Profile.Folded.render (Lazy.force tree))
        | Some path ->
          write_file path (Profile.Folded.render (Lazy.force tree));
          Printf.eprintf "wrote %s\n%!" path);
        (match json with
        | None -> ()
        | Some path ->
          write_file path
            (Metrics.Json.to_string ~indent:2 (Forkroad.Report.to_json report)
            ^ "\n");
          Printf.eprintf "wrote %s\n%!" path);
        (match trace with
        | None -> ()
        | Some path ->
          write_file path
            (Metrics.Json.to_string (Ksim.Trace.to_chrome ~lanes tr) ^ "\n");
          Printf.eprintf "wrote %s\n%!" path);
        (match jsonl with
        | None -> ()
        | Some path ->
          write_file path (Ksim.Trace.to_jsonl tr);
          Printf.eprintf "wrote %s\n%!" path);
        `Ok ())
  in
  Cmd.v (Cmd.info "stat" ~doc)
    Term.(
      ret
        (const run $ scenario_arg $ cpus_arg $ json_arg $ trace_arg
       $ lanes_arg $ jsonl_arg $ flame_arg $ critical_path_flag))

let () =
  let doc = "reproduce the evaluation of 'A fork() in the road' (HotOS'19)" in
  let info = Cmd.info "forkbench" ~version:"1.0.0" ~doc in
  exit (Cmd.eval (Cmd.group info [ list_cmd; run_cmd; all_cmd; stat_cmd ]))
