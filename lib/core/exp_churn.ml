(* E14 — churn: sustained creations+exits per second as the master's
   footprint grows. fork pays for the parent's page tables on every
   child, fork-eager additionally copies every frame, posix_spawn pays
   for a fresh exec image — all per creation. A zygote template pays the
   footprint cost once at freeze time; each spawn then clones O(shared
   page-table subtrees), so its latency is flat from 16 MiB to 4 GiB and
   its churn throughput does not decay with the master's size.

   The real-OS side shows the same shape with the tools an application
   actually has: creating a process per request (fork+exec or
   posix_spawn) versus dispatching to a prefork Spawnlib.Pool — the
   warm-worker idiom Android's zygote institutionalises. *)

type style = Fork | Fork_eager | Spawn | Zygote

let styles = [ Fork; Fork_eager; Spawn; Zygote ]

let style_name = function
  | Fork -> "fork"
  | Fork_eager -> "fork-eager"
  | Spawn -> "posix_spawn"
  | Zygote -> "zygote"

(* The trace span each style's creation syscall ends with. *)
let span_name = function
  | Fork -> "fork"
  | Fork_eager -> "fork_eager"
  | Spawn -> "posix_spawn"
  | Zygote -> "template_spawn"

let ok_or_die what = function
  | Ok v -> v
  | Error e -> invalid_arg ("Exp_churn: " ^ what ^ ": " ^ Ksim.Errno.to_string e)

let vmas = 8

let config ~heap_mib =
  {
    (Sim_driver.config_for ~heap_mib) with
    Ksim.Kernel.trace_capacity = Some 16_384;
  }

(* One boot per (footprint, style): warm the footprint (and freeze it,
   for the zygote), then run [n] create+wait cycles — or none, for the
   differential base run. The base includes the freeze, so the
   difference is purely the churn: creations, exits, waits. *)
let churn_body ~heap_mib ~n style ~churn () =
  Sim_driver.with_footprint ~heap_mib ~vmas ();
  let tpl =
    match style with
    | Zygote -> Some (ok_or_die "freeze" (Ksim.Api.freeze ()))
    | Fork | Fork_eager | Spawn -> None
  in
  if churn then
    for _ = 1 to n do
      let pid =
        match (style, tpl) with
        | Zygote, Some id ->
          ok_or_die "spawn_from_template"
            (Ksim.Api.spawn_from_template id ~child:(fun () -> Ksim.Api.exit 0))
        | Zygote, None -> assert false
        | Fork, _ ->
          ok_or_die "fork" (Ksim.Api.fork ~child:(fun () -> Ksim.Api.exit 0))
        | Fork_eager, _ ->
          ok_or_die "fork_eager"
            (Ksim.Api.fork_eager ~child:(fun () -> Ksim.Api.exit 0))
        | Spawn, _ -> ok_or_die "spawn" (Ksim.Api.spawn "/bin/true")
      in
      ignore (ok_or_die "wait" (Ksim.Api.wait_for pid))
    done

(* Per-creation latencies come from the trace of the churn run; the
   sustained rate comes from the simulated-time difference between the
   churn run and an identical run that never churns. *)
type point = {
  mib : int;
  style : style;
  n : int;
  ok_ns : float list;  (** per-creation span latencies, simulated ns *)
  total_ns : float;  (** differential simulated time of the whole churn *)
  hist : Metrics.Histogram.t;
}

let hist_of ns_list =
  let h = Metrics.Histogram.create ~base:1.0 ~buckets:64 () in
  List.iter (Metrics.Histogram.add h) ns_list;
  h

let churn_point ~n ~heap_mib style =
  let config = config ~heap_mib in
  let boot ~churn =
    Sim_driver.boot_scenario ~config (churn_body ~heap_mib ~n style ~churn)
  in
  let t_churn, _ = boot ~churn:true in
  let t_base, _ = boot ~churn:false in
  let cycles =
    Vmem.Cost.total (Ksim.Kernel.cost t_churn)
    -. Vmem.Cost.total (Ksim.Kernel.cost t_base)
  in
  let ok_ns =
    Sim_driver.ok_ns
      (Sim_driver.end_spans t_churn ~what:(span_name style) ~pid:(( = ) 1))
  in
  {
    mib = heap_mib;
    style;
    n;
    ok_ns;
    total_ns = Vmem.Cost.cycles_to_ns cycles;
    hist = hist_of ok_ns;
  }

let ops_per_sec p =
  if p.total_ns <= 0.0 then 0.0 else float_of_int p.n /. p.total_ns *. 1e9

(* ------------------------------------------------------------------ *)
(* Real-OS side: per-request creation vs prefork pool dispatch. *)

let real_rows ~quick =
  let n = if quick then 10 else 100 in
  let row name samples =
    let stats = Metrics.Stats.of_list (Array.to_list samples) in
    [
      name;
      Metrics.Units.ns stats.Metrics.Stats.p50;
      Metrics.Units.ns stats.Metrics.Stats.p99;
      Printf.sprintf "%.0f" (1e9 /. stats.Metrics.Stats.mean);
    ]
  in
  let per_request how create =
    row how
      (Workload.Timer.sample ~warmup:2 ~n (fun () ->
           match create () with
           | Ok pid -> ignore (Spawnlib.Native.wait_exit pid)
           | Error e ->
             invalid_arg
               ("Exp_churn real: " ^ how ^ ": "
              ^ Spawnlib.Native.errno_message e)))
  in
  let pool_row () =
    match
      Spawnlib.Pool.create ~size:4 ~prog:"/bin/cat" ~argv:[ "cat" ] ()
    with
    | Error e -> invalid_arg ("Exp_churn real: pool: " ^ Spawnlib.Pool.error_message e)
    | Ok pool ->
      Fun.protect
        ~finally:(fun () -> ignore (Spawnlib.Pool.shutdown pool))
        (fun () ->
          row "prefork pool dispatch (Spawnlib.Pool, 4 workers)"
            (Workload.Timer.sample ~warmup:2 ~n (fun () ->
                 match Spawnlib.Pool.submit pool "ping" with
                 | Ok _ -> ()
                 | Error e ->
                   invalid_arg
                     ("Exp_churn real: submit: "
                    ^ Spawnlib.Pool.error_message e))))
  in
  [
    per_request "fork+exec per request" (fun () ->
        Spawnlib.Native.fork_exec ~prog:"/bin/true" ~argv:[ "true" ] ());
    per_request "posix_spawn per request" (fun () ->
        Spawnlib.Native.posix_spawn ~prog:"/bin/true" ~argv:[ "true" ] ());
    pool_row ();
  ]

(* The real-OS block, measured once per [quick]. Spawnlib.Pool starts
   its workers with Unix.fork, which OCaml 5 refuses once the process
   has spawned a domain, so it is forced before any Par.map. *)
let measure_real_block ~quick =
  match real_rows ~quick with
  | rows ->
    let t =
      Metrics.Table.create
        [ "real-OS tactic"; "p50"; "p99"; "requests/s" ]
    in
    List.iter (Metrics.Table.add_row t) rows;
    Report.Table
      {
        caption =
          Printf.sprintf
            "real OS, %d requests per tactic: creating a process per \
             request vs dispatching to warm prefork workers"
            (if quick then 10 else 100);
        table = t;
      }
  | exception e ->
    Report.Note
      ("real-side churn skipped in this environment: " ^ Printexc.to_string e)

let real_block =
  let quick_block = lazy (measure_real_block ~quick:true)
  and full_block = lazy (measure_real_block ~quick:false) in
  fun ~quick -> Lazy.force (if quick then quick_block else full_block)

(* ------------------------------------------------------------------ *)

let run ~quick =
  let real_block = real_block ~quick in
  let footprints = if quick then [ 16; 1024 ] else [ 16; 64; 256; 1024; 4096 ] in
  let n = if quick then 4 else 12 in
  let points =
    Workload.Par.map
      (fun (mib, style) -> churn_point ~n ~heap_mib:mib style)
      (List.concat_map
         (fun mib -> List.map (fun s -> (mib, s)) styles)
         footprints)
  in
  let table =
    Metrics.Table.create
      [ "footprint"; "api"; "create p50"; "create p99"; "creations+exits/s" ]
  in
  List.iter
    (fun p ->
      let stats =
        if p.ok_ns = [] then None else Some (Metrics.Stats.of_list p.ok_ns)
      in
      let pct f =
        match stats with None -> "-" | Some s -> Metrics.Units.ns (f s)
      in
      Metrics.Table.add_row table
        [
          Printf.sprintf "%d MiB" p.mib;
          style_name p.style;
          pct (fun s -> s.Metrics.Stats.p50);
          pct (fun s -> s.Metrics.Stats.p99);
          Printf.sprintf "%.0f" (ops_per_sec p);
        ])
    points;
  (* Whole-sweep latency distribution per style: the per-point histograms
     merge associatively and commutatively (test_metrics checks this), so
     the aggregation is independent of Par.map's domain fan-out. *)
  let merged_hist style =
    List.filter (fun p -> p.style = style) points
    |> List.map (fun p -> p.hist)
    |> function
    | [] -> None
    | h :: rest -> Some (List.fold_left Metrics.Histogram.merge h rest)
  in
  let data =
    Metrics.Json.obj
      [
        ( "points",
          Metrics.Json.arr
            (List.map
               (fun p ->
                 Metrics.Json.obj
                   ([
                      ("mib", Metrics.Json.int p.mib);
                      ("api", Metrics.Json.str (style_name p.style));
                      ("n", Metrics.Json.int p.n);
                      ("total_ns", Metrics.Json.num p.total_ns);
                      ("ops_per_sec", Metrics.Json.num (ops_per_sec p));
                    ]
                   @
                   if p.ok_ns = [] then []
                   else
                     [
                       ( "latency",
                         Metrics.Stats.to_json (Metrics.Stats.of_list p.ok_ns)
                       );
                     ]))
               points) );
        ( "latency_hist",
          Metrics.Json.obj
            (List.filter_map
               (fun s ->
                 Option.map
                   (fun h -> (style_name s, Metrics.Histogram.to_json h))
                   (merged_hist s))
               styles) );
      ]
  in
  Report.make ~id:"E14" ~title:"churn: warm creation via zygote templates"
    [
      Report.Table
        {
          caption =
            Printf.sprintf
              "simulated, overcommit, %d create+wait cycles per cell; rate \
               is the differential simulated time of the whole churn loop"
              n;
          table;
        };
      real_block;
      Report.Note
        "fork's per-creation cost is the parent's page tables, so its churn \
         rate decays as the master grows (fork-eager decays fastest: it \
         copies every frame); posix_spawn holds flat but re-pays the exec \
         image each time. The zygote pays the footprint once at freeze: \
         spawn_from_template clones O(shared page-table subtrees), so its \
         p50 is flat across a 256x footprint range and its throughput \
         dominates fork by orders of magnitude at gigabyte footprints. The \
         real-OS table is the same argument with portable tools: a \
         prefork pool amortises creation exactly like a zygote template.";
      Report.Data { name = "churn-points"; json = data };
    ]

let experiment =
  {
    Report.exp_id = "E14";
    exp_title = "churn: warm creation via zygote templates";
    paper_claim =
      "a template/zygote abstraction makes warm process creation \
       constant-time in the parent's footprint, where fork degrades \
       linearly (and worse) with the memory it must logically copy; \
       prefork worker pools are the portable real-OS equivalent";
    exp_kind = Report.Sim;
    run = (fun ~quick -> run ~quick);
  }
