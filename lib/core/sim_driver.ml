type measurement = {
  cycles : float;
  ns : float;
  breakdown : (Vmem.Cost.cat * float) list;
  groups : (string * float) list;
  counters : (string * int) list;
  console : string;
  outcome : Ksim.Kernel.outcome;
}

let true_prog =
  Ksim.Program.make ~name:"/bin/true" (fun ~argv:_ () -> Ksim.Api.exit 0)

(* Like {!run_scenario} but hands back the booted machine, for callers
   that harvest state the measurement record doesn't carry (trace spans,
   fault-injection counts, per-pid kstat). *)
let boot_scenario ?config ?(programs = []) body =
  let init = Ksim.Program.make ~name:"/sbin/init" (fun ~argv:_ () -> body ()) in
  match
    Ksim.Kernel.boot ?config ~programs:(init :: true_prog :: programs)
      "/sbin/init"
  with
  | Error e ->
    invalid_arg ("Sim_driver.run_scenario: boot failed: " ^ Ksim.Errno.to_string e)
  | Ok (t, outcome) -> (t, outcome)

let run_scenario ?config ?programs body =
  let t, outcome = boot_scenario ?config ?programs body in
  let cost = Ksim.Kernel.cost t in
  let cycles = Vmem.Cost.total cost in
  let breakdown =
    List.map (fun (cat, (c, _)) -> (cat, c)) (Vmem.Cost.entries cost)
  in
  {
    cycles;
    ns = Vmem.Cost.cycles_to_ns cycles;
    breakdown;
    groups = Vmem.Cost.groups breakdown;
    counters = Ksim.Kstat.snapshot (Ksim.Kstat.global (Ksim.Kernel.kstat t));
    console = Ksim.Kernel.console t;
    outcome;
  }

let end_spans t ~what ~pid =
  List.filter
    (fun (e : Ksim.Trace.event) ->
      e.Ksim.Trace.phase = Ksim.Trace.End
      && e.Ksim.Trace.what = what
      && pid e.Ksim.Trace.pid)
    (Ksim.Trace.events (Option.get (Ksim.Kernel.trace t)))

let ok_ns ends =
  List.filter_map
    (fun (e : Ksim.Trace.event) ->
      match e.Ksim.Trace.outcome with
      | Some Ksim.Trace.Ok_result -> Some e.Ksim.Trace.span_ns
      | Some (Ksim.Trace.Err _) | None -> None)
    ends

let config_for ~heap_mib =
  {
    Ksim.Kernel.default_config with
    Ksim.Kernel.phys_pages =
      (2 * Workload.Sweep.pages_of_mib (max 1 heap_mib)) + 65536;
    commit_policy = Vmem.Frame.Overcommit;
    aslr = false;
  }

let with_footprint ~heap_mib ~vmas () =
  if heap_mib > 0 then begin
    let total = Workload.Sweep.bytes_of_mib heap_mib in
    let per_vma = Vmem.Addr.align_up (total / vmas) in
    for _ = 1 to vmas do
      match Ksim.Api.mmap ~len:per_vma ~perm:Vmem.Perm.rw with
      | Error e ->
        invalid_arg ("Sim_driver.with_footprint: mmap: " ^ Ksim.Errno.to_string e)
      | Ok addr -> (
        match Ksim.Api.touch ~addr ~len:per_vma with
        | Ok _ -> ()
        | Error e ->
          invalid_arg
            ("Sim_driver.with_footprint: touch: " ^ Ksim.Errno.to_string e))
    done
  end

let ok_or_die what = function
  | Ok v -> v
  | Error e -> invalid_arg ("Sim_driver: " ^ what ^ ": " ^ Ksim.Errno.to_string e)

let create_and_wait strategy =
  let wait pid = ignore (ok_or_die "wait" (Ksim.Api.wait_for pid)) in
  match (strategy : Strategy.t) with
  | Strategy.Fork_exec ->
    let pid =
      ok_or_die "fork"
        (Ksim.Api.fork ~child:(fun () ->
             (match Ksim.Api.exec "/bin/true" with Ok () | Error _ -> ());
             Ksim.Api.exit 127))
    in
    wait pid
  | Strategy.Fork_only ->
    wait (ok_or_die "fork" (Ksim.Api.fork ~child:(fun () -> Ksim.Api.exit 0)))
  | Strategy.Fork_eager ->
    wait
      (ok_or_die "fork_eager"
         (Ksim.Api.fork_eager ~child:(fun () -> Ksim.Api.exit 0)))
  | Strategy.Vfork_exec ->
    let pid =
      ok_or_die "vfork"
        (Ksim.Api.vfork ~child:(fun () ->
             (match Ksim.Api.exec "/bin/true" with Ok () | Error _ -> ());
             Ksim.Api.exit 127))
    in
    wait pid
  | Strategy.Posix_spawn ->
    wait (ok_or_die "spawn" (Ksim.Api.spawn "/bin/true"))
  | Strategy.Builder ->
    wait (ok_or_die "builder" (Procbuilder.spawn_minimal "/bin/true"))

(* The no-creation base run depends only on (heap_mib, vmas), not on the
   strategy, and boots are deterministic (ASLR off, fixed scheduler
   seed), so each domain computes it once per footprint and reuses the
   measurement across strategies — same numbers, a third fewer boots. *)
let base_cache :
    (int * int, measurement) Hashtbl.t Domain.DLS.key =
  Domain.DLS.new_key (fun () -> Hashtbl.create 16)

let creation_cost ?(vmas = 1) ~strategy ~heap_mib () =
  let config = config_for ~heap_mib in
  let scenario ~create () =
    with_footprint ~heap_mib ~vmas ();
    if create then create_and_wait strategy
  in
  let with_op = run_scenario ~config (scenario ~create:true) in
  let base =
    let tbl = Domain.DLS.get base_cache in
    match Hashtbl.find_opt tbl (heap_mib, vmas) with
    | Some m -> m
    | None ->
      let m = run_scenario ~config (scenario ~create:false) in
      Hashtbl.add tbl (heap_mib, vmas) m;
      m
  in
  let cycles = with_op.cycles -. base.cycles in
  (* ASLR is off and the runs are deterministic, so the base run's
     charges are a subset of the with-op run's: dropping only exact-zero
     deltas keeps sum(breakdown) = sum(groups) = headline cycles. *)
  let breakdown =
    List.filter_map
      (fun (cat, c) ->
        let base_c =
          Option.value ~default:0.0 (List.assoc_opt cat base.breakdown)
        in
        let d = c -. base_c in
        if d > 0.0 then Some (cat, d) else None)
      with_op.breakdown
  in
  {
    with_op with
    cycles;
    ns = Vmem.Cost.cycles_to_ns cycles;
    breakdown;
    groups = Vmem.Cost.groups breakdown;
    counters =
      List.filter_map
        (fun (k, n) ->
          let base_n =
            Option.value ~default:0 (List.assoc_opt k base.counters)
          in
          let d = n - base_n in
          if d <> 0 then Some (k, d) else None)
        with_op.counters;
  }
