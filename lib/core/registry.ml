(* T1 runs first: its real-OS samples measure the harness process itself,
   so it must precede the gigabyte footprints of F1 (allocator residue
   would otherwise inflate the "minimal process" numbers). *)
let all =
  [
    Exp_minproc.experiment;
    Exp_fig1.experiment;
    Exp_fig1_sim.experiment;
    Exp_cowtax.experiment;
    Exp_threads.experiment;
    Exp_stdio.experiment;
    Exp_aslr.experiment;
    Exp_overcommit.experiment;
    Exp_survey.experiment;
    Exp_vma.experiment;
    Exp_tlb.experiment;
    Exp_builder.experiment;
    Exp_snapshot.experiment;
    Exp_thp.experiment;
    Exp_pressure.experiment;
    Exp_churn.experiment;
    Exp_smp.experiment;
    Exp_serve.experiment;
    Exp_demand.experiment;
  ]

let ids = List.map (fun e -> e.Report.exp_id) all

let measure_real_first ~quick exps =
  List.iter
    (fun e ->
      match e.Report.exp_id with
      | "E14" -> ignore (Exp_churn.real_block ~quick)
      | "E17" -> ignore (Exp_serve.real_block ~quick)
      | _ -> ())
    exps

(* Filename-friendly names, matching the exp_*.ml module of each
   experiment — BENCH_<slug>.json is the bench harness's output name. *)
let slug e =
  match e.Report.exp_id with
  | "T1" -> "minproc"
  | "F1" -> "fig1"
  | "F1-SIM" -> "fig1_sim"
  | "E2" -> "cowtax"
  | "E3" -> "threads"
  | "E4" -> "stdio"
  | "E5" -> "aslr"
  | "E6" -> "overcommit"
  | "E7" -> "survey"
  | "E8" -> "vma"
  | "E9" -> "tlb"
  | "E10" -> "builder"
  | "E11" -> "snapshot"
  | "E12" -> "thp"
  | "E13" -> "pressure"
  | "E14" -> "churn"
  | "E16" -> "smp"
  | "E17" -> "serve"
  | "E18" -> "demand"
  | id ->
    String.map
      (fun c -> if c = '-' then '_' else Char.lowercase_ascii c)
      id

let find id =
  let canon s =
    String.map
      (fun c -> if c = '-' then '_' else Char.lowercase_ascii c)
      s
  in
  List.find_opt
    (fun e -> canon e.Report.exp_id = canon id || slug e = canon id)
    all
