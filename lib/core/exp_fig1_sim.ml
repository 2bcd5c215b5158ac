(* F1-SIM — the Figure-1 sweep on the simulator, deterministic and
   extended beyond this machine's RAM. *)

let strategies = [ Strategy.Fork_exec; Strategy.Vfork_exec; Strategy.Posix_spawn ]

let run ~quick =
  let sizes = if quick then [ 0; 16; 256 ] else Workload.Sweep.fig1_sim_mib in
  let rows =
    (* one work item per footprint: each boots its own kernels, so the
       sweep fans out across domains *)
    Workload.Par.map
      (fun mib ->
        ( mib,
          List.map
            (fun s -> (s, Sim_driver.creation_cost ~strategy:s ~heap_mib:mib ()))
            strategies ))
      sizes
  in
  (* transpose rows into one series per strategy in a single pass —
     [ms] is aligned with [strategies] by construction *)
  let all_series =
    let points_per_strategy =
      List.fold_right
        (fun (mib, ms) acc ->
          List.map2
            (fun (_, m) pts -> (float_of_int mib, m.Sim_driver.ns) :: pts)
            ms acc)
        rows
        (List.map (fun _ -> []) strategies)
    in
    List.map2
      (fun strategy points ->
        { Metrics.Series.label = Strategy.name strategy; points })
      strategies points_per_strategy
  in
  let fig =
    Metrics.Series.figure ~ylog:true
      ~title:
        "F1-SIM: create+exec cost (model ns) vs parent footprint (MiB) \
         [simulator]"
      ~xlabel:"MiB" ~ylabel:"ns" all_series
  in
  (* Machine-readable per-point cost breakdown: the subsystem groups
     partition every cycle charged, so for each point
     sum(groups) = cycles and cycles_to_ns(cycles) = ns. *)
  let point_json strategy mib (m : Sim_driver.measurement) =
    Metrics.Json.obj
      [
        ("strategy", Metrics.Json.str (Strategy.name strategy));
        ("mib", Metrics.Json.int mib);
        ("ns", Metrics.Json.num m.Sim_driver.ns);
        ("cycles", Metrics.Json.num m.Sim_driver.cycles);
        ( "groups",
          Metrics.Json.obj
            (List.map (fun (g, c) -> (g, Metrics.Json.num c)) m.Sim_driver.groups)
        );
        ( "counters",
          Metrics.Json.obj
            (List.map
               (fun (k, n) -> (k, Metrics.Json.int n))
               m.Sim_driver.counters) );
      ]
  in
  let points =
    Metrics.Json.arr
      (List.concat_map
         (fun (mib, ms) ->
           List.map (fun (s, m) -> point_json s mib m) ms)
         rows)
  in
  let breakdown_table =
    (* the pager column only exists when some point actually charged
       pager cycles (demand-paged machines); the eager sweep's table —
       and its BENCH baseline — keep the historical column set *)
    let cols =
      List.filter
        (fun g ->
          g <> "pager"
          || List.exists
               (fun (_, ms) ->
                 List.exists
                   (fun (_, (m : Sim_driver.measurement)) ->
                     List.mem_assoc g m.Sim_driver.groups)
                   ms)
               rows)
        Vmem.Cost.group_order
    in
    let table =
      Metrics.Table.create
        ~align:[ Metrics.Table.Left; Metrics.Table.Right ]
        ([ "strategy"; "MiB"; "ns" ] @ cols)
    in
    List.iter
      (fun (mib, ms) ->
        List.iter
          (fun (s, (m : Sim_driver.measurement)) ->
            Metrics.Table.add_row table
              ([
                 Strategy.name s;
                 string_of_int mib;
                 Metrics.Units.ns m.Sim_driver.ns;
               ]
              @ List.map
                  (fun g ->
                    let c =
                      Option.value ~default:0.0
                        (List.assoc_opt g m.Sim_driver.groups)
                    in
                    if c = 0.0 then "-" else Metrics.Units.cycles c)
                  cols))
          ms)
      rows;
    table
  in
  Report.make ~id:"F1-SIM"
    ~title:"Figure 1 (simulator): creation cost vs parent footprint"
    [
      Report.Figure fig;
      Report.Table
        {
          caption = "per-point cost breakdown (cycles by subsystem)";
          table = breakdown_table;
        };
      Report.Data { name = "points"; json = points };
      Report.Note
        "deterministic cycle model (Vmem.Cost), differential measurement; \
         the fork+exec series grows with the page-table copy while spawn \
         and vfork pay only the constant image-load cost. The subsystem \
         groups partition every charged cycle, so each point's groups sum \
         to its headline cost exactly.";
    ]

let experiment =
  {
    Report.exp_id = "F1-SIM";
    exp_title = "Figure 1 (simulator): creation cost vs parent footprint";
    paper_claim =
      "same shape as F1, extended to footprints beyond physical RAM: the \
       mechanism (page-table copy) is linear in the parent, spawn is \
       constant";
    exp_kind = Report.Sim;
    run = (fun ~quick -> run ~quick);
  }
