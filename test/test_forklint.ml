(* forklint tests: the static rule engine against the hazard-labelled
   corpus, JSON round-tripping, and the dynamic (ksim trace) checker —
   including cross-validation that both layers report the same rule ids
   on matching fixtures. *)

let check_int = Alcotest.(check int)
let check_bool = Alcotest.(check bool)

let finding_triple d =
  (d.Forklore.Diagnostic.rule, d.Forklore.Diagnostic.line, d.Forklore.Diagnostic.col)

let pp_triples ts =
  String.concat "; "
    (List.map (fun (r, l, c) -> Printf.sprintf "(%s,%d,%d)" r l c) ts)

let rule_ids ds =
  List.sort_uniq String.compare
    (List.map (fun d -> d.Forklore.Diagnostic.rule) ds)

(* ------------------------------------------------------------------ *)
(* Static checker vs. labelled hazard corpus *)

let test_hazard_corpus_ground_truth () =
  List.iter
    (fun h ->
      let got =
        List.map finding_triple
          (Forklore.Rules.check_string ~file:h.Forklore.Corpus.hz_name
             h.Forklore.Corpus.hz_source)
      in
      if got <> h.Forklore.Corpus.hz_expected then
        Alcotest.failf "%s: expected [%s] got [%s]" h.Forklore.Corpus.hz_name
          (pp_triples h.Forklore.Corpus.hz_expected)
          (pp_triples got))
    Forklore.Corpus.hazards

let test_threaded_fixture_detail () =
  (* the acceptance fixture: >= 3 distinct rules with exact spans *)
  let h = List.hd Forklore.Corpus.hazards in
  let ds =
    Forklore.Rules.check_string ~file:h.Forklore.Corpus.hz_name
      h.Forklore.Corpus.hz_source
  in
  check_bool "at least 3 distinct rules" true (List.length (rule_ids ds) >= 3);
  check_bool "has an Error finding" true
    (List.exists Forklore.Diagnostic.is_error ds);
  let threaded =
    List.find
      (fun d -> d.Forklore.Diagnostic.rule = "fork-in-threads")
      ds
  in
  check_bool "error severity" true
    (threaded.Forklore.Diagnostic.severity = Forklore.Diagnostic.Error);
  check_bool "cites the paper" true
    (threaded.Forklore.Diagnostic.citation <> "");
  check_bool "hints at spawn" true
    (let hint = threaded.Forklore.Diagnostic.hint in
     let needle = "spawn" in
     let n = String.length hint and m = String.length needle in
     let rec go i = i + m <= n && (String.sub hint i m = needle || go (i + 1)) in
     go 0)

let test_rule_registry () =
  check_int "eight rules" 8 (List.length Forklore.Rules.all);
  check_bool "find known" true (Forklore.Rules.find "vfork-misuse" <> None);
  check_bool "find the path-only rules" true
    (Forklore.Rules.find "lock-across-fork" <> None
    && Forklore.Rules.find "child-path-return" <> None);
  check_bool "find unknown" true (Forklore.Rules.find "no-such-rule" = None);
  (* ids are unique *)
  let ids = List.map (fun r -> r.Forklore.Rules.id) Forklore.Rules.all in
  check_int "unique ids" (List.length ids)
    (List.length (List.sort_uniq String.compare ids))

let test_path_sensitivity_wins () =
  (* the acceptance fixtures: hazard-shaped code on non-child paths must
     lint clean *)
  List.iter
    (fun name ->
      let h =
        List.find
          (fun h -> h.Forklore.Corpus.hz_name = name)
          Forklore.Corpus.hazards
      in
      let ds =
        Forklore.Rules.check_string ~file:name h.Forklore.Corpus.hz_source
      in
      check_int (name ^ " lints clean") 0 (List.length ds))
    [ "parent_path_work.c"; "helper_flush.c"; "cross_function.c" ]

let test_rule_subset () =
  let h = List.hd Forklore.Corpus.hazards in
  let only_threads =
    match Forklore.Rules.find "fork-in-threads" with
    | Some r -> [ r ]
    | None -> Alcotest.fail "missing rule"
  in
  let ds =
    Forklore.Rules.check_string ~rules:only_threads
      ~file:h.Forklore.Corpus.hz_name h.Forklore.Corpus.hz_source
  in
  Alcotest.(check (list string)) "only the requested rule"
    [ "fork-in-threads" ] (rule_ids ds)

(* ------------------------------------------------------------------ *)
(* JSON round-trip *)

let all_hazard_diags () =
  List.concat_map
    (fun h ->
      Forklore.Rules.check_string ~file:h.Forklore.Corpus.hz_name
        h.Forklore.Corpus.hz_source)
    Forklore.Corpus.hazards

let test_json_roundtrip () =
  let ds = List.sort Forklore.Diagnostic.compare (all_hazard_diags ()) in
  check_bool "have findings" true (ds <> []);
  let json = Forklore.Diagnostic.report_to_json ds in
  match Forklore.Diagnostic.report_of_json json with
  | Error msg -> Alcotest.failf "parse back failed: %s" msg
  | Ok parsed ->
    check_int "same count" (List.length ds) (List.length parsed);
    List.iter2
      (fun a b ->
        check_bool "finding round-trips" true (Forklore.Diagnostic.equal a b))
      ds parsed

let test_json_escaping () =
  let d =
    {
      Forklore.Diagnostic.rule = "r";
      severity = Forklore.Diagnostic.Info;
      file = "we\"ird\\path\n.c";
      line = 1;
      col = 2;
      message = "tab\there";
      citation = "\194\1672";
      hint = "h";
    }
  in
  match Forklore.Diagnostic.report_of_json (Forklore.Diagnostic.report_to_json [ d ]) with
  | Ok [ d' ] -> check_bool "escaped fields survive" true (Forklore.Diagnostic.equal d d')
  | Ok _ -> Alcotest.fail "wrong count"
  | Error msg -> Alcotest.failf "parse back failed: %s" msg

(* ------------------------------------------------------------------ *)
(* SARIF export *)

let jget path jv =
  let step acc key =
    match acc with
    | None -> None
    | Some v -> (
      match int_of_string_opt key with
      | Some i -> (
        match Metrics.Json.to_list v with
        | Some items when i < List.length items -> Some (List.nth items i)
        | _ -> None)
      | None -> Metrics.Json.member key v)
  in
  List.fold_left step (Some jv) (String.split_on_char '.' path)

let test_sarif_shape () =
  let ds = List.sort Forklore.Diagnostic.compare (all_hazard_diags ()) in
  check_bool "have findings" true (ds <> []);
  let sarif = Forklore.Sarif.report ds in
  match Metrics.Json.of_string sarif with
  | Error msg -> Alcotest.failf "SARIF is not valid JSON: %s" msg
  | Ok jv ->
    let str path =
      match Option.bind (jget path jv) Metrics.Json.to_str with
      | Some s -> s
      | None -> Alcotest.failf "missing string at %s" path
    in
    check_bool "2.1.0 schema uri" true
      (str "$schema" = Forklore.Sarif.schema_uri);
    Alcotest.(check string) "version" "2.1.0" (str "version");
    Alcotest.(check string) "driver name" "forklint"
      (str "runs.0.tool.driver.name");
    let rules =
      match Option.bind (jget "runs.0.tool.driver.rules" jv) Metrics.Json.to_list with
      | Some l -> l
      | None -> Alcotest.fail "missing rules array"
    in
    check_int "rule table is the registry" (List.length Forklore.Rules.all)
      (List.length rules);
    let results =
      match Option.bind (jget "runs.0.results" jv) Metrics.Json.to_list with
      | Some l -> l
      | None -> Alcotest.fail "missing results array"
    in
    check_int "one result per finding" (List.length ds) (List.length results);
    List.iter2
      (fun (d : Forklore.Diagnostic.t) r ->
        let rstr path =
          match Option.bind (jget path r) Metrics.Json.to_str with
          | Some s -> s
          | None -> Alcotest.failf "result missing %s" path
        in
        let rint path =
          match Option.bind (jget path r) Metrics.Json.to_int with
          | Some i -> i
          | None -> Alcotest.failf "result missing %s" path
        in
        Alcotest.(check string) "ruleId" d.rule (rstr "ruleId");
        Alcotest.(check string) "level"
          (Forklore.Sarif.level_of_severity d.severity)
          (rstr "level");
        Alcotest.(check string) "uri" d.file
          (rstr "locations.0.physicalLocation.artifactLocation.uri");
        check_int "startLine" d.line
          (rint "locations.0.physicalLocation.region.startLine");
        check_int "startColumn" d.col
          (rint "locations.0.physicalLocation.region.startColumn");
        (* ruleIndex points back at the right rule-table entry *)
        let idx = rint "ruleIndex" in
        (match Option.bind (jget (Printf.sprintf "runs.0.tool.driver.rules.%d.id" idx) jv) Metrics.Json.to_str with
        | Some id -> Alcotest.(check string) "ruleIndex resolves" d.rule id
        | None -> Alcotest.fail "ruleIndex out of range");
        (* the fix hint rides in the message and the properties bag *)
        check_bool "hint in properties" true
          (rstr "properties.hint" = d.hint))
      ds results

let test_sarif_level_mapping () =
  Alcotest.(check string) "error" "error"
    (Forklore.Sarif.level_of_severity Forklore.Diagnostic.Error);
  Alcotest.(check string) "warning" "warning"
    (Forklore.Sarif.level_of_severity Forklore.Diagnostic.Warn);
  Alcotest.(check string) "note" "note"
    (Forklore.Sarif.level_of_severity Forklore.Diagnostic.Info)

let test_sarif_empty_report () =
  match Metrics.Json.of_string (Forklore.Sarif.report []) with
  | Error msg -> Alcotest.failf "empty SARIF invalid: %s" msg
  | Ok jv ->
    (match Option.bind (jget "runs.0.results" jv) Metrics.Json.to_list with
    | Some [] -> ()
    | Some _ -> Alcotest.fail "expected empty results"
    | None -> Alcotest.fail "missing results array")

let test_json_rejects_garbage () =
  check_bool "not json" true
    (Result.is_error (Forklore.Diagnostic.report_of_json "nonsense"));
  check_bool "no findings field" true
    (Result.is_error (Forklore.Diagnostic.report_of_json "{\"a\": 1}"));
  check_bool "ill-typed finding" true
    (Result.is_error
       (Forklore.Diagnostic.report_of_json "{\"findings\": [{\"rule\": 3}]}"))

(* ------------------------------------------------------------------ *)
(* Dynamic checker: ksim trace replay *)

let prog name main = Ksim.Program.make ~name (fun ~argv:_ () -> main ())
let true_prog = prog "/bin/true" (fun () -> ())

let ok = function
  | Ok v -> v
  | Error _ -> Alcotest.fail "expected Ok"

let run_traced ?(programs = []) main =
  let config =
    { Ksim.Kernel.default_config with Ksim.Kernel.trace_capacity = Some 1024 }
  in
  let t = Ksim.Kernel.create ~config () in
  Ksim.Kernel.register_all t (prog "/sbin/init" main :: programs);
  (match Ksim.Kernel.spawn_init t "/sbin/init" with
  | Ok _ -> ()
  | Error _ -> Alcotest.fail "spawn_init failed");
  (match Ksim.Kernel.run t with
  | Ksim.Kernel.All_exited -> ()
  | o -> Alcotest.failf "unexpected outcome %a" Ksim.Kernel.pp_outcome o);
  match Ksim.Kernel.trace t with
  | Some tr -> tr
  | None -> Alcotest.fail "trace missing"

let static_rules_of_fixture name =
  let h =
    List.find (fun h -> h.Forklore.Corpus.hz_name = name) Forklore.Corpus.hazards
  in
  rule_ids
    (Forklore.Rules.check_string ~file:h.Forklore.Corpus.hz_name
       h.Forklore.Corpus.hz_source)

let test_dynamic_threaded_fork () =
  let tr =
    run_traced (fun () ->
        (* the worker must still be live when the fork happens, so it
           spins until the process exits out from under it *)
        let rec spin () =
          Ksim.Api.yield ();
          spin ()
        in
        ignore (ok (Ksim.Api.thread_create spin));
        let pid = ok (Ksim.Api.fork ~child:(fun () -> ())) in
        ignore (ok (Ksim.Api.wait_for pid)))
  in
  let dynamic = rule_ids (Ksim.Lint.check tr) in
  Alcotest.(check (list string))
    "threaded fork without exec, observed at runtime"
    [ "fork-in-threads"; "fork-no-exec" ]
    dynamic;
  (* cross-validation: the static twin fixture reports the same rules *)
  let static = static_rules_of_fixture "threaded_noexec.c" in
  check_bool "static layer agrees on every dynamic rule" true
    (List.for_all (fun r -> List.mem r static) dynamic)

let test_dynamic_vfork_misuse () =
  let tr =
    run_traced ~programs:[ true_prog ] (fun () ->
        let pid =
          ok
            (Ksim.Api.vfork ~child:(fun () ->
                 ignore (Ksim.Api.write 1 "oops");
                 ignore (Ksim.Api.exec "/bin/true")))
        in
        ignore (ok (Ksim.Api.wait_for pid)))
  in
  let dynamic = rule_ids (Ksim.Lint.check tr) in
  Alcotest.(check (list string)) "vfork child wrote before exec"
    [ "vfork-misuse" ] dynamic;
  Alcotest.(check (list string))
    "same rule as the static vfork fixture" dynamic
    (static_rules_of_fixture "vfork_bad.c")

let test_dynamic_fd_leak () =
  let tr =
    run_traced ~programs:[ true_prog ] (fun () ->
        ignore (ok (Ksim.Api.openf ~flags:Ksim.Types.o_wronly "/tmp/leak"));
        ignore (Ksim.Api.exec "/bin/true"))
  in
  let dynamic = rule_ids (Ksim.Lint.check tr) in
  Alcotest.(check (list string)) "exec with a non-cloexec fd"
    [ "fd-no-cloexec" ] dynamic;
  Alcotest.(check (list string))
    "same rule as the static cloexec fixture" dynamic
    (static_rules_of_fixture "cloexec_leak.c")

let test_dynamic_cloexec_is_clean () =
  let tr =
    run_traced ~programs:[ true_prog ] (fun () ->
        ignore
          (ok
             (Ksim.Api.openf
                ~flags:(Ksim.Types.with_cloexec Ksim.Types.o_wronly)
                "/tmp/notleaked"));
        ignore (Ksim.Api.exec "/bin/true"))
  in
  Alcotest.(check (list string)) "cloexec fd does not leak" []
    (rule_ids (Ksim.Lint.check tr))

let test_dynamic_unsafe_child_work () =
  let tr =
    run_traced ~programs:[ true_prog ] (fun () ->
        let pid =
          ok
            (Ksim.Api.fork ~child:(fun () ->
                 ignore (Ksim.Api.sbrk 4096);
                 ignore (Ksim.Api.exec "/bin/true")))
        in
        ignore (ok (Ksim.Api.wait_for pid)))
  in
  Alcotest.(check (list string)) "heap growth in the fork->exec window"
    [ "unsafe-child-work" ]
    (rule_ids (Ksim.Lint.check tr))

let test_dynamic_lock_across_fork () =
  let tr =
    run_traced ~programs:[ true_prog ] (fun () ->
        let mu = Ksim.Api.mutex_create () in
        ignore (ok (Ksim.Api.mutex_lock mu));
        let pid =
          ok
            (Ksim.Api.fork ~child:(fun () ->
                 ignore (Ksim.Api.exec "/bin/true")))
        in
        ignore (ok (Ksim.Api.mutex_unlock mu));
        ignore (ok (Ksim.Api.wait_for pid)))
  in
  let dynamic = rule_ids (Ksim.Lint.check tr) in
  check_bool "lock held at fork observed" true
    (List.mem "lock-across-fork" dynamic);
  (* cross-validation: the static twin fixture reports the same rule *)
  Alcotest.(check (list string))
    "same rule as the static lock fixture" [ "lock-across-fork" ]
    (static_rules_of_fixture "lock_across_fork.c")

let test_dynamic_unlocked_fork_is_clean () =
  let tr =
    run_traced ~programs:[ true_prog ] (fun () ->
        let mu = Ksim.Api.mutex_create () in
        ignore (ok (Ksim.Api.mutex_lock mu));
        ignore (ok (Ksim.Api.mutex_unlock mu));
        let pid =
          ok
            (Ksim.Api.fork ~child:(fun () ->
                 ignore (Ksim.Api.exec "/bin/true")))
        in
        ignore (ok (Ksim.Api.wait_for pid)))
  in
  check_bool "unlock before fork is clean" true
    (not (List.mem "lock-across-fork" (rule_ids (Ksim.Lint.check tr))))

let test_dynamic_spawn_is_clean () =
  let tr =
    run_traced ~programs:[ true_prog ] (fun () ->
        let pid = ok (Ksim.Api.spawn "/bin/true") in
        ignore (ok (Ksim.Api.wait_for pid)))
  in
  Alcotest.(check (list string)) "spawn triggers no fork hazards" []
    (rule_ids (Ksim.Lint.check tr))

let test_fork_trace_annotations () =
  let tr =
    run_traced (fun () ->
        let pid = ok (Ksim.Api.fork ~child:(fun () -> Ksim.Api.exit 0)) in
        ignore (ok (Ksim.Api.wait_for pid)))
  in
  let forks =
    List.filter (fun e -> e.Ksim.Trace.what = "fork") (Ksim.Trace.events tr)
  in
  check_bool "fork event present" true (forks <> []);
  List.iter
    (fun e ->
      match e.Ksim.Trace.detail with
      | Ksim.Trace.D_fork { live_threads } ->
        check_int "single-threaded fork" 1 live_threads
      | _ -> Alcotest.fail "fork event lost its D_fork detail")
    forks;
  let children = Ksim.Trace.find tr ~pattern:"fork_child" in
  check_bool "fork_child recorded" true (children <> []);
  check_bool "child pid attached" true
    (List.for_all
       (fun e ->
         match e.Ksim.Trace.detail with
         | Ksim.Trace.D_child { style = "fork"; _ } -> true
         | _ -> false)
       children)

let tc n f = Alcotest.test_case n `Quick f

let () =
  Alcotest.run "forklint"
    [
      ( "static",
        [
          tc "hazard corpus ground truth" test_hazard_corpus_ground_truth;
          tc "threaded fixture detail" test_threaded_fixture_detail;
          tc "rule registry" test_rule_registry;
          tc "path sensitivity wins" test_path_sensitivity_wins;
          tc "rule subset" test_rule_subset;
        ] );
      ( "json",
        [
          tc "round-trip" test_json_roundtrip;
          tc "escaping" test_json_escaping;
          tc "rejects garbage" test_json_rejects_garbage;
        ] );
      ( "sarif",
        [
          tc "2.1.0 shape" test_sarif_shape;
          tc "level mapping" test_sarif_level_mapping;
          tc "empty report" test_sarif_empty_report;
        ] );
      ( "dynamic",
        [
          tc "threaded fork" test_dynamic_threaded_fork;
          tc "vfork misuse" test_dynamic_vfork_misuse;
          tc "fd leak at exec" test_dynamic_fd_leak;
          tc "cloexec clean" test_dynamic_cloexec_is_clean;
          tc "unsafe child work" test_dynamic_unsafe_child_work;
          tc "lock across fork" test_dynamic_lock_across_fork;
          tc "unlocked fork clean" test_dynamic_unlocked_fork_is_clean;
          tc "spawn clean" test_dynamic_spawn_is_clean;
          tc "trace args" test_fork_trace_annotations;
        ] );
    ]
