(* Benchmark harness: regenerates every table and figure of the
   evaluation (see DESIGN.md's experiment index and EXPERIMENTS.md for
   paper-vs-measured).

     dune exec bench/main.exe                 -- everything, full depth
     dune exec bench/main.exe -- --quick      -- everything, reduced depth
     dune exec bench/main.exe -- f1 e3        -- selected experiments
     dune exec bench/main.exe -- micro        -- bechamel micro-benches only
     dune exec bench/main.exe -- --smoke      -- sim experiments, tiny
                                                 parameters, validate the
                                                 emitted BENCH_*.json
                                                 (and quick F1-SIM's wall
                                                 budget)

   Every experiment run also writes BENCH_<slug>.json — the full report
   (series points, per-point cost breakdowns, counters) plus run
   parameters — so successive runs accumulate a machine-readable perf
   trajectory. The bechamel section measures real minimal-process
   creation with OLS regression (complementing T1's sample statistics);
   the experiment reports then follow in paper order. *)

open Bechamel
open Toolkit

let bechamel_creation_tests () =
  let strategies =
    List.filter Forkroad.Strategy.supported_real Forkroad.Strategy.all
  in
  let test_of s =
    Test.make
      ~name:(Forkroad.Strategy.name s)
      (Staged.stage (fun () -> Forkroad.Real_driver.creation_once s))
  in
  Test.make_grouped ~name:"creation" (List.map test_of strategies)

let run_bechamel () =
  let ols =
    Analyze.ols ~bootstrap:0 ~r_square:true ~predictors:Measure.[| run |]
  in
  let instances = Instance.[ monotonic_clock ] in
  let cfg =
    Benchmark.cfg ~limit:200 ~quota:(Time.second 1.0) ~stabilize:false ()
  in
  let raw = Benchmark.all cfg instances (bechamel_creation_tests ()) in
  let results = Analyze.all ols Instance.monotonic_clock raw in
  let table =
    Metrics.Table.create ~align:[ Metrics.Table.Left ]
      [ "benchmark"; "ns/run (OLS)"; "r^2" ]
  in
  let rows = ref [] in
  Hashtbl.iter
    (fun name ols_result ->
      let estimate =
        match Analyze.OLS.estimates ols_result with
        | Some (e :: _) -> Metrics.Units.ns e
        | Some [] | None -> "-"
      in
      let r2 =
        match Analyze.OLS.r_square ols_result with
        | Some r -> Printf.sprintf "%.4f" r
        | None -> "-"
      in
      rows := (name, [ name; estimate; r2 ]) :: !rows)
    results;
  List.iter
    (fun (_, row) -> Metrics.Table.add_row table row)
    (List.sort compare !rows);
  print_endline "========================================================================";
  print_endline "[MICRO] bechamel: minimal-process creation, real OS (OLS ns/run)";
  print_endline "========================================================================";
  print_string (Metrics.Table.render table);
  print_newline ()

let write_file path contents =
  let oc = open_out path in
  Fun.protect
    ~finally:(fun () -> close_out oc)
    (fun () -> output_string oc contents)

let bench_json ~quick ~wall_ms exp report =
  Metrics.Json.obj
    [
      ("exp", Metrics.Json.str exp.Forkroad.Report.exp_id);
      ("slug", Metrics.Json.str (Forkroad.Registry.slug exp));
      ("title", Metrics.Json.str exp.Forkroad.Report.exp_title);
      ( "kind",
        Metrics.Json.str
          (Forkroad.Report.kind_string exp.Forkroad.Report.exp_kind) );
      ("claim", Metrics.Json.str exp.Forkroad.Report.paper_claim);
      ( "params",
        Metrics.Json.obj
          [
            ("quick", Metrics.Json.bool quick);
            ("jobs", Metrics.Json.int (Workload.Par.jobs ()));
            ("harness_wall_ms", Metrics.Json.num wall_ms);
          ] );
      ("report", Forkroad.Report.to_json report);
    ]

(* Where BENCH_*.json land; --outdir redirects (e.g. into a scratch dir
   for a regress comparison, or bench/baselines/* when refreshing). *)
let outdir = ref "."

let bench_file exp =
  Filename.concat !outdir ("BENCH_" ^ Forkroad.Registry.slug exp ^ ".json")

let run_experiment ?(print = true) ~quick exp =
  let t0 = Unix.gettimeofday () in
  let report = exp.Forkroad.Report.run ~quick in
  let dt = Unix.gettimeofday () -. t0 in
  if print then begin
    print_string (Forkroad.Report.render report);
    Printf.printf "paper claim: %s\n" exp.Forkroad.Report.paper_claim;
    Printf.printf "(generated in %.1fs)\n\n" dt
  end;
  write_file (bench_file exp)
    (Metrics.Json.to_string ~indent:2
       (bench_json ~quick ~wall_ms:(dt *. 1000.) exp report)
    ^ "\n")

(* A BENCH_*.json is useful to downstream tooling only if it parses and
   actually carries data: at least one figure with a non-empty series, a
   table with rows, or a data block. The harness instrumentation must
   also be sane — harness_wall_ms present, numeric (NaN serialises to
   null) and non-negative — and reports expected to carry a blame
   ledger (cowtax) must actually have a populated one. *)
let validate_bench_file path =
  let read () =
    let ic = open_in_bin path in
    Fun.protect
      ~finally:(fun () -> close_in ic)
      (fun () -> really_input_string ic (in_channel_length ic))
  in
  match Metrics.Json.of_string (read ()) with
  | Error e -> Error (Printf.sprintf "%s: parse error: %s" path e)
  | Ok j -> (
    let open Metrics.Json in
    let wall_ok =
      match Option.bind (member "params" j) (member "harness_wall_ms") with
      | None -> Error (path ^ ": params.harness_wall_ms missing")
      | Some v -> (
        match to_num v with
        | None ->
          Error (path ^ ": params.harness_wall_ms not a number (NaN?)")
        | Some ms when Float.is_nan ms || ms < 0.0 ->
          Error
            (Printf.sprintf "%s: params.harness_wall_ms invalid: %g" path ms)
        | Some _ -> Ok ())
    in
    let blame_ok blocks =
      match Option.bind (member "slug" j) to_str with
      | Some "cowtax" ->
        let populated b =
          Option.bind (member "kind" b) to_str = Some "data"
          && Option.bind (member "name" b) to_str = Some "blame"
          && (match
                Option.bind (member "data" b) (member "events")
                |> Fun.flip Option.bind to_list
              with
             | Some (_ :: _) -> true
             | _ -> false)
          && Option.bind (member "data" b) (member "unattributed") <> None
        in
        if List.exists populated blocks then Ok ()
        else Error (path ^ ": cowtax lacks a populated blame data block")
      | _ -> Ok ()
    in
    match Option.bind (member "report" j) (member "blocks")
          |> Fun.flip Option.bind to_list
    with
    | None | Some [] -> Error (path ^ ": no report blocks")
    | Some _ when wall_ok <> Ok () -> wall_ok
    | Some blocks when blame_ok blocks <> Ok () -> blame_ok blocks
    | Some blocks ->
      let non_empty b =
        match Option.bind (member "kind" b) to_str with
        | Some "figure" -> (
          match
            Option.bind (member "figure" b) (member "series")
            |> Fun.flip Option.bind to_list
          with
          | Some (_ :: _ as series) ->
            List.for_all
              (fun s ->
                match
                  Option.bind (member "points" s) to_list
                with
                | Some (_ :: _) -> true
                | _ -> false)
              series
          | _ -> false)
        | Some "table" -> (
          match
            Option.bind (member "table" b) (member "rows")
            |> Fun.flip Option.bind to_list
          with
          | Some (_ :: _) -> true
          | _ -> false)
        | Some "data" -> member "data" b <> None
        | _ -> false
      in
      if List.exists non_empty blocks then Ok ()
      else Error (path ^ ": no non-empty figure/table/data block"))

(* Wall budget of the quick F1-SIM: the O(range) fast paths regressing
   to per-page behaviour blow it even in the quick sweep. *)
let f1_sim_budget_ms = 60_000.0

let run_smoke () =
  let sims =
    List.filter
      (fun e -> e.Forkroad.Report.exp_kind = Forkroad.Report.Sim)
      Forkroad.Registry.all
  in
  let failures = ref 0 in
  Forkroad.Registry.measure_real_first ~quick:true sims;
  List.iter
    (fun exp ->
      let t0 = Unix.gettimeofday () in
      run_experiment ~print:false ~quick:true exp;
      let dt = Unix.gettimeofday () -. t0 in
      let file = bench_file exp in
      let verdict =
        match validate_bench_file file with
        | Ok () when exp.Forkroad.Report.exp_id = "F1-SIM"
                     && dt *. 1000. > f1_sim_budget_ms ->
          Error
            (Printf.sprintf "quick F1-SIM took %.0f ms (budget %.0f ms)"
               (dt *. 1000.) f1_sim_budget_ms)
        | v -> v
      in
      match verdict with
      | Ok () ->
        Printf.printf "smoke %-7s ok    %s (%.1fs)\n%!"
          exp.Forkroad.Report.exp_id file dt
      | Error msg ->
        incr failures;
        Printf.printf "smoke %-7s FAIL  %s\n%!" exp.Forkroad.Report.exp_id msg)
    sims;
  if !failures > 0 then begin
    Printf.eprintf "bench smoke: %d experiment(s) failed validation\n"
      !failures;
    exit 1
  end;
  Printf.printf "bench smoke: %d sim experiments ok\n" (List.length sims)

(* bench regress --baseline DIR [--current DIR] [--report FILE]
                 [--wall-factor F] [--wall-slack-ms MS]

   Diff the current directory's BENCH_*.json against a committed
   baseline (see Forkroad.Regress for the per-block rules) and exit
   nonzero on any regression — the CI perf gate. *)
let run_regress args =
  let baseline = ref None
  and current = ref "."
  and report = ref None
  and tol = ref Forkroad.Regress.default_tolerance in
  let usage () =
    Printf.eprintf
      "usage: bench regress --baseline DIR [--current DIR] [--report FILE]\n\
      \       [--wall-factor F] [--wall-slack-ms MS]\n";
    exit 2
  in
  let float_arg name v =
    match float_of_string_opt v with
    | Some f when f >= 0.0 -> f
    | Some _ | None ->
      Printf.eprintf "bench regress: %s wants a non-negative number, got %S\n"
        name v;
      exit 2
  in
  let rec parse = function
    | [] -> ()
    | "--baseline" :: v :: rest ->
      baseline := Some v;
      parse rest
    | "--current" :: v :: rest ->
      current := v;
      parse rest
    | "--report" :: v :: rest ->
      report := Some v;
      parse rest
    | "--wall-factor" :: v :: rest ->
      tol := { !tol with Forkroad.Regress.wall_factor = float_arg "--wall-factor" v };
      parse rest
    | "--wall-slack-ms" :: v :: rest ->
      tol :=
        { !tol with Forkroad.Regress.wall_slack_ms = float_arg "--wall-slack-ms" v };
      parse rest
    | _ -> usage ()
  in
  parse args;
  match !baseline with
  | None -> usage ()
  | Some baseline ->
    let findings =
      Forkroad.Regress.compare_dirs ~tol:!tol ~baseline ~current:!current ()
    in
    (match !report with
    | None -> ()
    | Some path ->
      write_file path
        (Metrics.Json.to_string ~indent:2
           (Forkroad.Regress.report_to_json findings)
        ^ "\n");
      Printf.eprintf "wrote %s\n%!" path);
    (match findings with
    | [] ->
      Printf.printf "bench regress: no regressions vs %s\n" baseline;
      exit 0
    | fs ->
      List.iter
        (fun f ->
          Printf.printf "REGRESSION %s\n" (Forkroad.Regress.finding_to_string f))
        fs;
      Printf.eprintf "bench regress: %d finding(s) vs %s\n" (List.length fs)
        baseline;
      exit 1)

let () =
  (* The sim sweeps allocate page-table leaves by the tens of millions;
     the default 256 KiB minor heap spends a large fraction of the run
     promoting them. A 32 MiB minor heap is measurably faster and only
     affects the harness, never a simulated number. *)
  Gc.set { (Gc.get ()) with Gc.minor_heap_size = 4 * 1024 * 1024 };
  let args = List.tl (Array.to_list Sys.argv) in
  (* `bench regress` is a pure JSON diff; it never runs an experiment
     and always exits from run_regress. *)
  (match args with "regress" :: rest -> run_regress rest | _ -> ());
  (* --jobs N (or --jobs=N) overrides FORKROAD_JOBS for this run *)
  let set_jobs s =
    match int_of_string_opt s with
    | Some n when n >= 0 -> Workload.Par.set_jobs n
    | Some _ | None ->
      Printf.eprintf "bench: --jobs wants a non-negative integer, got %S\n" s;
      exit 2
  in
  let set_outdir d =
    if not (Sys.file_exists d && Sys.is_directory d) then begin
      Printf.eprintf "bench: --outdir %S is not a directory\n" d;
      exit 2
    end;
    outdir := d
  in
  let args =
    let rec strip acc = function
      | [] -> List.rev acc
      | [ "--jobs" ] ->
        Printf.eprintf "bench: --jobs wants a value\n";
        exit 2
      | "--jobs" :: v :: rest ->
        set_jobs v;
        strip acc rest
      | a :: rest when String.length a > 7 && String.sub a 0 7 = "--jobs=" ->
        set_jobs (String.sub a 7 (String.length a - 7));
        strip acc rest
      | [ "--outdir" ] ->
        Printf.eprintf "bench: --outdir wants a value\n";
        exit 2
      | "--outdir" :: v :: rest ->
        set_outdir v;
        strip acc rest
      | a :: rest when String.length a > 9 && String.sub a 0 9 = "--outdir=" ->
        set_outdir (String.sub a 9 (String.length a - 9));
        strip acc rest
      | a :: rest -> strip (a :: acc) rest
    in
    strip [] args
  in
  let quick = List.exists (fun a -> a = "--quick" || a = "-q") args in
  let smoke = List.exists (fun a -> a = "--smoke") args in
  let selectors =
    List.filter
      (fun a -> a <> "--quick" && a <> "-q" && a <> "--" && a <> "--smoke")
      args
    |> List.map String.lowercase_ascii
  in
  let micro_only = selectors = [ "micro" ] in
  let want id =
    selectors = []
    || List.mem (String.lowercase_ascii id) selectors
  in
  if smoke then run_smoke ()
  else if micro_only then run_bechamel ()
  else begin
    if selectors = [] then run_bechamel ();
    let wanted =
      List.filter
        (fun exp -> want exp.Forkroad.Report.exp_id)
        Forkroad.Registry.all
    in
    Forkroad.Registry.measure_real_first ~quick wanted;
    List.iter (run_experiment ~quick) wanted;
    (match
       List.filter
         (fun s ->
           s <> "micro"
           && not
                (List.exists
                   (fun e ->
                     String.lowercase_ascii e.Forkroad.Report.exp_id = s)
                   Forkroad.Registry.all))
         selectors
     with
    | [] -> ()
    | unknown ->
      Printf.eprintf "unknown experiment(s): %s\nknown: %s\n"
        (String.concat ", " unknown)
        (String.concat ", " Forkroad.Registry.ids);
      exit 2)
  end
