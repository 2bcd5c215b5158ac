type result = {
  report : Report.t;
  trace : Ksim.Trace.t;
  machine : Ksim.Kernel.t;
}

let heap_mib = 16

let ok_or_die what = function
  | Ok v -> v
  | Error e ->
    invalid_arg ("Stat_driver: " ^ what ^ ": " ^ Ksim.Errno.to_string e)

let true_prog =
  Ksim.Program.make ~name:"/bin/true" (fun ~argv:_ () -> Ksim.Api.exit 0)

let wait pid = ignore (ok_or_die "wait" (Ksim.Api.wait_for pid))

let fig1_body () =
  Sim_driver.with_footprint ~heap_mib ~vmas:1 ();
  wait
    (ok_or_die "fork"
       (Ksim.Api.fork ~child:(fun () ->
            (match Ksim.Api.exec "/bin/true" with Ok () | Error _ -> ());
            Ksim.Api.exit 127)))

let cowtax_body () =
  let total = Workload.Sweep.bytes_of_mib heap_mib in
  let addr = ok_or_die "mmap" (Ksim.Api.mmap ~len:total ~perm:Vmem.Perm.rw) in
  ignore (ok_or_die "touch" (Ksim.Api.touch ~addr ~len:total));
  wait
    (ok_or_die "fork"
       (Ksim.Api.fork ~child:(fun () ->
            ignore (Ksim.Api.touch ~addr ~len:(total / 2));
            Ksim.Api.exit 0)))

let tlb_body () =
  Sim_driver.with_footprint ~heap_mib ~vmas:4 ();
  wait
    (ok_or_die "fork" (Ksim.Api.fork ~child:(fun () -> Ksim.Api.exit 0)))

let stdio_body () =
  let f = ok_or_die "fopen" (Ksim.Stdio.fopen ~bufsize:4096 1) in
  ok_or_die "puts" (Ksim.Stdio.puts f (String.make 1024 'x'));
  let pid =
    ok_or_die "fork"
      (Ksim.Api.fork ~child:(fun () ->
           ok_or_die "flush" (Ksim.Stdio.flush f);
           Ksim.Api.exit 0))
  in
  wait pid;
  ok_or_die "flush" (Ksim.Stdio.flush f)

(* Fork-heavy SMP scenario: spinner threads hold the other CPUs so
   every fork's shootdown has remote TLBs to interrupt (run it with
   --cpus N; on one CPU it degenerates to plain fork churn). *)
let smp_body () =
  Sim_driver.with_footprint ~heap_mib ~vmas:4 ();
  let stop = ref false in
  for _ = 2 to 4 do
    ignore
      (ok_or_die "spinner"
         (Ksim.Api.thread_create (fun () ->
              while not !stop do
                Ksim.Api.yield ()
              done)))
  done;
  for _ = 1 to 2 do
    Ksim.Api.yield ()
  done;
  for _ = 1 to 4 do
    wait
      (ok_or_die "fork" (Ksim.Api.fork ~child:(fun () -> Ksim.Api.exit 0)))
  done;
  stop := true

(* Prefork serving scenario: two workers accept on a shared listener,
   the main thread plays eight clients (polling each connection before
   reading), then retires the workers with QUIT connections. Exercises
   the whole socket/poll syscall family in one kstat report. *)
let serve_body () =
  let port = 80 in
  let lfd = ok_or_die "socket" (Ksim.Api.socket ()) in
  ok_or_die "bind" (Ksim.Api.bind lfd ~port);
  ok_or_die "listen" (Ksim.Api.listen lfd ~backlog:4);
  let rec worker () =
    match Ksim.Api.accept lfd with
    | Error _ -> Ksim.Api.exit 1
    | Ok conn -> (
      match Ksim.Api.read conn 16 with
      | Ok "Q" | Ok "" | Error _ ->
        ignore (Ksim.Api.close conn);
        Ksim.Api.exit 0
      | Ok _ ->
        ignore (Ksim.Api.write_all conn "k");
        ignore (Ksim.Api.close conn);
        worker ())
  in
  for _ = 1 to 2 do
    ignore (ok_or_die "fork" (Ksim.Api.fork ~child:worker))
  done;
  let request payload =
    let fd = ok_or_die "socket" (Ksim.Api.socket ()) in
    (match Ksim.Api.connect fd ~port with
    | Error _ -> ()
    | Ok () ->
      ignore (Ksim.Api.write_all fd payload);
      if payload <> "Q" then begin
        ignore (Ksim.Api.poll [ Ksim.Types.pollin fd ]);
        ignore (Ksim.Api.read fd 16)
      end);
    ignore (Ksim.Api.close fd)
  in
  for _ = 1 to 8 do
    request "R"
  done;
  for _ = 1 to 2 do
    request "Q"
  done;
  ignore (Ksim.Api.wait_all ());
  ignore (ok_or_die "close" (Ksim.Api.close lfd))

(* Demand-paging scenario: the machine boots with a pager installed
   (readahead 8), so every exec maps its image lazily. Four spawns of a
   1 MiB-data worker; child i write-touches i/4 of the data segment,
   taking major faults the pager serves. The report's per-pid fault
   table shows the major/minor split per child. *)
let demand_data_len = 1024 * 1024

let demand_worker =
  Ksim.Program.make ~name:"/lazy-worker" ~data_kib:(demand_data_len / 1024)
    (fun ~argv () ->
      (match argv with
      | [ len ] ->
        let len = int_of_string len in
        if len > 0 then
          ignore
            (ok_or_die "worker touch"
               (Ksim.Api.touch
                  ~addr:(Ksim.Kernel.image_base + (64 * 1024))
                  ~len))
      | _ -> ());
      Ksim.Api.exit 0)

let demand_body () =
  for i = 1 to 4 do
    let len = i * demand_data_len / 4 in
    wait
      (ok_or_die "spawn"
         (Ksim.Api.spawn ~argv:[ string_of_int len ] "/lazy-worker"))
  done

let scenarios =
  [
    ("fig1-sim", "fork+exec /bin/true from a 16 MiB parent");
    ("cowtax", "fork, then the child write-touches half the parent's heap");
    ("tlb", "fork-only from a 16 MiB parent spread over 4 VMAs");
    ("stdio", "fork with 1 KiB of unflushed stdio, both sides flush");
    ("smp", "fork churn with spinner threads holding the other CPUs");
    ("serve", "two prefork workers accept 8 polled client requests");
    ("demand", "4 lazy spawns of a 1 MiB image, children touch 25-100%");
  ]

let body_of = function
  | "fig1-sim" -> Some fig1_body
  | "cowtax" -> Some cowtax_body
  | "tlb" -> Some tlb_body
  | "stdio" -> Some stdio_body
  | "smp" -> Some smp_body
  | "serve" -> Some serve_body
  | "demand" -> Some demand_body
  | _ -> None

let pct part total = if total > 0.0 then 100.0 *. part /. total else 0.0

let category_table cost =
  let total = Vmem.Cost.total cost in
  let t =
    Metrics.Table.create
      ~align:[ Metrics.Table.Left ]
      [ "category"; "cycles"; "events"; "%" ]
  in
  List.iter
    (fun (cat, (cycles, events)) ->
      Metrics.Table.add_row t
        [
          cat;
          Metrics.Units.cycles cycles;
          string_of_int events;
          Printf.sprintf "%5.1f" (pct cycles total);
        ])
    (Vmem.Cost.by_category_counts cost);
  t

let groups_table cost =
  let total = Vmem.Cost.total cost in
  let t =
    Metrics.Table.create
      ~align:[ Metrics.Table.Left ]
      [ "subsystem"; "cycles"; "%" ]
  in
  List.iter
    (fun (g, cycles) ->
      Metrics.Table.add_row t
        [
          g;
          Metrics.Units.cycles cycles;
          Printf.sprintf "%5.1f" (pct cycles total);
        ])
    (Vmem.Cost.groups
       (List.map (fun (cat, (c, _)) -> (cat, c)) (Vmem.Cost.entries cost)));
  t

let counters_table counters =
  let t =
    Metrics.Table.create ~align:[ Metrics.Table.Left ] [ "counter"; "count" ]
  in
  List.iter
    (fun (k, n) ->
      if n <> 0 then Metrics.Table.add_row t [ k; string_of_int n ])
    (Ksim.Kstat.snapshot counters);
  t

let kinds_table counters =
  let t =
    Metrics.Table.create ~align:[ Metrics.Table.Left ] [ "syscall"; "calls" ]
  in
  List.iter
    (fun (k, n) -> Metrics.Table.add_row t [ k; string_of_int n ])
    (Ksim.Kstat.kinds counters);
  t

(* Per-CPU counter breakdown, present only when the boot was SMP. *)
let smp_table (s : Ksim.Kstat.smp) =
  let t =
    Metrics.Table.create
      ~align:[ Metrics.Table.Left ]
      [ "cpu"; "ipis sent"; "ipis received"; "steals"; "migrations" ]
  in
  for cpu = 0 to s.Ksim.Kstat.smp_cpus - 1 do
    Metrics.Table.add_row t
      [
        string_of_int cpu;
        string_of_int s.Ksim.Kstat.sent.(cpu);
        string_of_int s.Ksim.Kstat.received.(cpu);
        string_of_int s.Ksim.Kstat.steals.(cpu);
        string_of_int s.Ksim.Kstat.migrations.(cpu);
      ]
  done;
  t

(* Major/minor fault breakdown by pid — only rendered when a pager
   actually served faults, so eager scenarios keep their report shape. *)
let faults_table kstat =
  let t =
    Metrics.Table.create
      ~align:[ Metrics.Table.Left ]
      [
        "pid"; "major faults"; "minor faults"; "pages fetched";
        "readahead hits";
      ]
  in
  let row label (c : Ksim.Kstat.counters) =
    Metrics.Table.add_row t
      [
        label;
        string_of_int c.Ksim.Kstat.major_faults;
        string_of_int c.Ksim.Kstat.minor_faults;
        string_of_int c.Ksim.Kstat.pages_fetched;
        string_of_int c.Ksim.Kstat.readahead_hits;
      ]
  in
  List.iter
    (fun pid ->
      match Ksim.Kstat.pid_counters kstat pid with
      | Some c
        when c.Ksim.Kstat.major_faults + c.Ksim.Kstat.minor_faults > 0 ->
        row (string_of_int pid) c
      | Some _ | None -> ())
    (Ksim.Kstat.pids kstat);
  row "total" (Ksim.Kstat.global kstat);
  t

let fanout_note (s : Ksim.Kstat.smp) =
  let rows =
    Hashtbl.fold (fun k n acc -> (k, !n) :: acc) s.Ksim.Kstat.fanout []
    |> List.sort compare
  in
  if rows = [] then "shootdown fanout: no full-AS shootdowns reached a remote TLB"
  else
    "shootdown fanout (remote CPUs interrupted per full-AS shootdown): "
    ^ String.concat ", "
        (List.map (fun (k, n) -> Printf.sprintf "%d CPUs x%d" k n) rows)

(* One sample per completed syscall span, in simulated nanoseconds. *)
let latency_histogram trace =
  let h = Metrics.Histogram.create ~base:1.0 ~buckets:48 () in
  List.iter
    (fun (e : Ksim.Trace.event) ->
      if e.phase = Ksim.Trace.End then Metrics.Histogram.add h e.span_ns)
    (Ksim.Trace.events trace);
  h

let run ?(cpus = 1) key =
  match body_of key with
  | None -> None
  | Some body ->
    let base = Sim_driver.config_for ~heap_mib in
    (* cpus = 1 keeps the legacy machine untouched, including its
       [config_for] cpu count (the broadcast-TLB cost formula reads it) *)
    let demand = key = "demand" in
    let config =
      {
        base with
        Ksim.Kernel.trace_capacity = Some 65536;
        smp = cpus > 1;
        cpus = (if cpus > 1 then cpus else base.Ksim.Kernel.cpus);
        demand_paging = demand;
        pager_readahead = (if demand then 8 else 0);
      }
    in
    let init =
      Ksim.Program.make ~name:"/sbin/init" (fun ~argv:_ () -> body ())
    in
    let programs =
      [ init; true_prog ] @ if demand then [ demand_worker ] else []
    in
    (match Ksim.Kernel.boot ~config ~programs "/sbin/init" with
    | Error e ->
      invalid_arg ("Stat_driver.run: boot failed: " ^ Ksim.Errno.to_string e)
    | Ok (t, outcome) ->
      let cost = Ksim.Kernel.cost t in
      let counters = Ksim.Kstat.global (Ksim.Kernel.kstat t) in
      let trace =
        match Ksim.Kernel.trace t with
        | Some tr -> tr
        | None -> Ksim.Trace.create ()
      in
      let total = Vmem.Cost.total cost in
      let headline =
        Printf.sprintf "whole-run cost: %s cycles = %s; outcome: %s"
          (Metrics.Units.cycles total)
          (Metrics.Units.ns (Vmem.Cost.cycles_to_ns total))
          (Format.asprintf "%a" Ksim.Kernel.pp_outcome outcome)
      in
      let hist = latency_histogram trace in
      let fault_blocks =
        if (Ksim.Kstat.global (Ksim.Kernel.kstat t)).Ksim.Kstat.major_faults = 0
        then []
        else
          [
            Report.Table
              {
                caption = "page faults by pid (major = pager-served)";
                table = faults_table (Ksim.Kernel.kstat t);
              };
          ]
      in
      let smp_blocks =
        match Ksim.Kstat.smp (Ksim.Kernel.kstat t) with
        | None -> []
        | Some s ->
          [
            Report.Table
              {
                caption = "per-CPU counters (smp)";
                table = smp_table s;
              };
            Report.Note (fanout_note s);
          ]
      in
      let report =
        Report.make ~id:("STAT:" ^ key)
          ~title:
            (Printf.sprintf "kstat report: %s"
               (Option.value ~default:key (List.assoc_opt key scenarios)))
          ([
            Report.Note headline;
            Report.Table
              { caption = "cycles by subsystem"; table = groups_table cost };
            Report.Table
              {
                caption = "cycles by cost category";
                table = category_table cost;
              };
            Report.Table
              {
                caption = "kernel counters (kstat, non-zero)";
                table = counters_table counters;
              };
            Report.Table
              { caption = "syscalls by kind"; table = kinds_table counters };
          ]
          @ fault_blocks @ smp_blocks
          @ [
            Report.Note
              (Printf.sprintf
                 "syscall latency (simulated ns, %d completed spans):\n%s"
                 (Metrics.Histogram.count hist)
                 (Metrics.Histogram.render hist));
            Report.Table
              {
                caption = "cost attribution by creation event (blame)";
                table = Profile.Blame_report.table (Ksim.Kernel.blame t);
              };
            Report.Data
              {
                name = "kstat";
                json = Ksim.Kstat.to_json counters;
              };
            Report.Data
              {
                name = "blame";
                json = Profile.Blame_report.to_json (Ksim.Kernel.blame t);
              };
          ])
      in
      Some { report; trace; machine = t })
