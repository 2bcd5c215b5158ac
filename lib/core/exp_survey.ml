(* E7 — usage survey: process-creation call sites across a corpus, plus
   forklint's precision on the labelled hazard fixtures. *)

let corpus_seed = 2019
let corpus_size = 500

(* Score forklint against a fixture's hand-labelled ground truth
   ([hz_expected]): (reported, false positives, false negatives). *)
let score truth reported =
  let fp = List.filter (fun f -> not (List.mem f truth)) reported in
  let fn = List.filter (fun t -> not (List.mem t reported)) truth in
  (List.length reported, List.length fp, List.length fn)

let lint_precision () =
  let table =
    Metrics.Table.create
      ~align:[ Metrics.Table.Left ]
      [ "fixture"; "truth"; "reported"; "FP"; "FN" ]
  in
  let tot = Array.make 4 0 in
  List.iter
    (fun (h : Forklore.Corpus.hazard) ->
      let truth = h.hz_expected in
      let reported =
        List.map
          (fun (d : Forklore.Diagnostic.t) -> (d.rule, d.line, d.col))
          (Forklore.Rules.check_string ~file:h.hz_name h.hz_source)
      in
      let r, fp, fn = score truth reported in
      let row = [ List.length truth; r; fp; fn ] in
      List.iteri (fun i v -> tot.(i) <- tot.(i) + v) row;
      Metrics.Table.add_row table (h.hz_name :: List.map string_of_int row))
    Forklore.Corpus.hazards;
  Metrics.Table.add_row table
    ("total" :: List.map string_of_int (Array.to_list tot));
  let truth = tot.(0) and reported = tot.(1) and fp = tot.(2) and fn = tot.(3) in
  let precision =
    if reported = 0 then 1.0
    else float_of_int (reported - fp) /. float_of_int reported
  in
  let recall =
    if truth = 0 then 1.0 else float_of_int (truth - fn) /. float_of_int truth
  in
  let data =
    Metrics.Json.obj
      [
        ("fixtures", Metrics.Json.int (List.length Forklore.Corpus.hazards));
        ("truth_findings", Metrics.Json.int truth);
        ("reported", Metrics.Json.int reported);
        ("false_positives", Metrics.Json.int fp);
        ("false_negatives", Metrics.Json.int fn);
        ("precision", Metrics.Json.num precision);
        ("recall", Metrics.Json.num recall);
      ]
  in
  (table, data)

let run ~quick =
  let packages = if quick then 100 else corpus_size in
  let pkgs = Forklore.Corpus.generate ~packages ~seed:corpus_seed () in
  (match Forklore.Survey.validate pkgs with
  | Ok () -> ()
  | Error msg -> invalid_arg ("Exp_survey: scanner mismatch: " ^ msg));
  let rows = Forklore.Survey.of_packages pkgs in
  let precision_table, precision_data = lint_precision () in
  let table =
    Metrics.Table.create
      ~align:[ Metrics.Table.Left ]
      [ "API"; "packages using"; "share"; "call sites" ]
  in
  List.iter
    (fun r ->
      Metrics.Table.add_row table
        [
          Forklore.Api.name r.Forklore.Survey.api;
          string_of_int r.Forklore.Survey.packages_using;
          Metrics.Units.percent r.Forklore.Survey.package_share;
          string_of_int r.Forklore.Survey.call_sites;
        ])
    rows;
  Report.make ~id:"E7" ~title:"creation-API usage survey"
    [
      Report.Table
        {
          caption =
            Printf.sprintf
              "synthetic %d-package corpus (seed %d), scanner validated \
               against embedded ground truth"
              packages corpus_seed;
          table;
        };
      Report.Note
        "the corpus mix encodes the paper's observation: fork-family idioms \
         (fork, system, popen) dominate Unix code while posix_spawn \
         adoption is rare. Run `forkscan <dir>` to apply the same scanner \
         to any real C tree.";
      Report.Table
        {
          caption =
            "forklint precision on the labelled hazard fixtures (FP/FN vs \
             hand-labelled ground truth)";
          table = precision_table;
        };
      Report.Data { name = "lint-precision"; json = precision_data };
      Report.Note
        "three fixtures hold hazard-shaped code a token window cannot \
         scope: work on the pid>0 parent branch (parent_path_work), stdio \
         flushed through a helper before the fork (helper_flush), and a \
         printf in a different function (cross_function). forklint \
         resolves fork() return-value branches into child/parent/error \
         regions on a per-function CFG, so those fixtures lint clean while \
         the lock-across-fork and child-path-return hazards are caught. \
         Run `forkscan lint --format=sarif <dir>` for the CI-consumable \
         report.";
    ]

let experiment =
  {
    Report.exp_id = "E7";
    exp_title = "creation-API usage survey";
    paper_claim =
      "fork remains the overwhelmingly dominant creation API in Unix \
       code; spawn-style APIs are rarely used";
    exp_kind = Report.Static;
    run = (fun ~quick -> run ~quick);
  }
