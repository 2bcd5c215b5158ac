(* Goldens of every [forkbench stat] output.

   Each scenario of [Stat_driver.scenarios] runs at one and at four
   CPUs, and each run renders the five outputs the CLI writes, byte for
   byte: the report (stdout), the stdout of [--critical-path] (the report
   followed by the critical-path table), the folded stacks of [--flame],
   the Chrome trace of [--trace] and the JSON lines of [--jsonl].
   [Stat_refs.table] holds the MD5 of each, keyed
   ["<scenario>.c<cpus>.<output>"], so any change that moves a simulated
   number, an event, a span or a rendering shows here.

   [test_stat.exe goldens] prints the table in the layout of
   stat_refs.ml. *)

let cpus = [ 1; 4 ]

(* The five outputs of one run, as (name, contents). *)
let outputs key ~cpus =
  match Forkroad.Stat_driver.run ~cpus key with
  | None -> Alcotest.failf "unknown scenario %s" key
  | Some { Forkroad.Stat_driver.report; trace; machine } ->
    let report = Forkroad.Report.render report in
    let tree = Profile.Span_tree.build machine in
    [
      ("report", report);
      ("cp", report ^ Profile.Critical_path.render tree ^ "\n");
      ("folded", Profile.Folded.render tree);
      ("trace.json", Metrics.Json.to_string (Ksim.Trace.to_chrome ~lanes:`Pid trace) ^ "\n");
      ("jsonl", Ksim.Trace.to_jsonl trace);
    ]

let digests key ~cpus =
  List.map
    (fun (out, s) ->
      (Printf.sprintf "%s.c%d.%s" key cpus out, Digest.to_hex (Digest.string s)))
    (outputs key ~cpus)

let test_run key cpus () =
  List.iter
    (fun (name, got) ->
      match List.assoc_opt name Stat_refs.table with
      | None -> Alcotest.failf "%s: no golden (got %s)" name got
      | Some want -> Alcotest.(check string) name want got)
    (digests key ~cpus)

let print_goldens () =
  print_string
    "(* MD5 of every forkbench stat output, keyed\n\
    \   \"<scenario>.c<cpus>.<output>\". Printed by test_stat.exe goldens. *)\n\n\
     let table =\n  [\n";
  List.iter
    (fun (key, _) ->
      List.iter
        (fun cpus ->
          List.iter
            (fun (name, d) -> Printf.printf "    (%S, %S);\n" name d)
            (digests key ~cpus))
        cpus)
    Forkroad.Stat_driver.scenarios;
  print_string "  ]\n"

let () =
  match Sys.argv with
  | [| _; "goldens" |] -> print_goldens ()
  | _ ->
    Alcotest.run "stat"
      [
        ( "goldens",
          List.concat_map
            (fun (key, _) ->
              List.map
                (fun c ->
                  Alcotest.test_case (Printf.sprintf "%s --cpus %d" key c) `Quick
                    (test_run key c))
                cpus)
            Forkroad.Stat_driver.scenarios );
      ]
