(* Tests for the SMP kernel: per-CPU scheduling, tracked TLB shootdown
   IPIs driven by per-address-space CPU masks, per-CPU kstat counters,
   CPU trace lanes, and the CPU order of a round's syscall dispatch. *)

module Api = Ksim.Api

let check_int = Alcotest.(check int)
let check_bool = Alcotest.(check bool)

let prog ?text_kib ?data_kib name body =
  Ksim.Program.make ?text_kib ?data_kib ~name (fun ~argv () -> body argv)

let smp_config ?(cpus = 4) ?(trace = false) () =
  {
    Ksim.Kernel.default_config with
    Ksim.Kernel.smp = true;
    cpus;
    aslr = false;
    commit_policy = Vmem.Frame.Overcommit;
    trace_capacity = (if trace then Some 8192 else None);
  }

let boot ?(config = smp_config ()) ?(programs = []) body =
  let init = prog "/sbin/init" body in
  match Ksim.Kernel.boot ~config ~programs:(init :: programs) "/sbin/init" with
  | Error _ -> Alcotest.fail "boot failed"
  | Ok (t, outcome) -> (t, outcome)

let ok = function
  | Ok v -> v
  | Error _ -> Alcotest.fail "expected Ok"

let contains hay needle =
  let nh = String.length hay and nn = String.length needle in
  let rec go i = i + nn <= nh && (String.sub hay i nn = needle || go (i + 1)) in
  nn = 0 || go 0

let ipis t = (Ksim.Kstat.global (Ksim.Kernel.kstat t)).Ksim.Kstat.ipis_sent

(* ------------------------------------------------------------------ *)
(* Directed: shootdown IPI counts follow the CPU mask exactly *)

(* A single-threaded process only ever runs on its home CPU, so its
   space's mask is a singleton and a fork interrupts nobody. *)
let test_fork_cold_mask_no_ipi () =
  let t, outcome =
    boot (fun _ ->
        let old_brk = ok (Api.sbrk 65536) in
        ignore (ok (Api.touch ~addr:old_brk ~len:65536));
        let child = ok (Api.fork ~child:(fun () -> ())) in
        ignore (ok (Api.wait_for child)))
  in
  check_bool "all exited" true (outcome = Ksim.Kernel.All_exited);
  check_int "no remote CPU cached the space: 0 IPIs" 0 (ipis t)

(* Three sibling threads warm CPUs 1..3 (round-robin placement); the
   fork's full-AS shootdown must then interrupt exactly those three. *)
let test_fork_warm_mask_ipis () =
  let t, outcome =
    boot (fun _ ->
        for _ = 1 to 3 do
          ignore
            (ok
               (Api.thread_create (fun () ->
                    for _ = 1 to 3 do
                      Api.yield ()
                    done)))
        done;
        (* let every sibling run at least one slice *)
        for _ = 1 to 5 do
          Api.yield ()
        done;
        let child = ok (Api.fork ~child:(fun () -> ())) in
        ignore (ok (Api.wait_for child)))
  in
  check_bool "all exited" true (outcome = Ksim.Kernel.All_exited);
  check_int "3 warm remote CPUs: 3 IPIs" 3 (ipis t);
  let g = Ksim.Kstat.global (Ksim.Kernel.kstat t) in
  check_int "received = sent" 3 g.Ksim.Kstat.ipis_received;
  match Ksim.Kstat.smp (Ksim.Kernel.kstat t) with
  | None -> Alcotest.fail "smp kstat dimension missing"
  | Some s ->
    check_int "all sent from cpu 0" 3 s.Ksim.Kstat.sent.(0);
    check_int "cpu 1 interrupted once" 1 s.Ksim.Kstat.received.(1);
    check_int "cpu 2 interrupted once" 1 s.Ksim.Kstat.received.(2);
    check_int "cpu 3 interrupted once" 1 s.Ksim.Kstat.received.(3);
    check_int "fanout histogram: one 3-CPU shootdown" 1
      (match Hashtbl.find_opt s.Ksim.Kstat.fanout 3 with
      | Some r -> !r
      | None -> 0)

(* A COW break invalidates one page: the IPI bill is the number of
   remote CPUs caching the space at break time. The fork collapses the
   parent's mask to its own CPU; two spinner threads then warm CPUs 2
   and 3 again, so the write must IPI exactly those two. *)
let test_cow_break_ipis_warm_cpus () =
  let t = Ksim.Kernel.create ~config:(smp_config ()) () in
  let ipis_now () =
    (Ksim.Kstat.global (Ksim.Kernel.kstat t)).Ksim.Kstat.ipis_sent
  in
  let before_write = ref (-1) and after_write = ref (-1) in
  let body _ =
    let addr = ok (Api.sbrk 8192) in
    ignore (ok (Api.touch ~addr ~len:8192));
    let child =
      ok
        (Api.fork
           ~child:(fun () ->
             for _ = 1 to 1000 do
               Api.yield ()
             done))
    in
    (* the fork shot the parent's mask down to {0}; warm two remote
       CPUs again (the child occupies cpu 1 in its own space) *)
    for _ = 1 to 2 do
      ignore
        (ok
           (Api.thread_create (fun () ->
                for _ = 1 to 3 do
                  Api.yield ()
                done)))
    done;
    for _ = 1 to 5 do
      Api.yield ()
    done;
    before_write := ipis_now ();
    ignore (ok (Api.mem_write ~addr "x"));
    after_write := ipis_now ();
    ok (Api.kill child Ksim.Usignal.SIGKILL);
    ignore (ok (Api.wait_for child))
  in
  Ksim.Kernel.register t (prog "/sbin/init" body);
  (match Ksim.Kernel.spawn_init t "/sbin/init" with
  | Error _ -> Alcotest.fail "spawn_init failed"
  | Ok _ -> ());
  let outcome = Ksim.Kernel.run t in
  check_bool "all exited" true (outcome = Ksim.Kernel.All_exited);
  check_int "COW break IPIs exactly the 2 warm remotes" 2
    (!after_write - !before_write);
  check_int "one COW break" 1
    (Ksim.Kstat.global (Ksim.Kernel.kstat t)).Ksim.Kstat.cow_breaks

(* Work stealing: a short-lived thread leaves CPU 1 idle while CPU 0's
   queue holds two runnable threads — CPU 1 must steal one. *)
let test_work_stealing () =
  let config = smp_config ~cpus:2 () in
  let t, outcome =
    boot ~config (fun _ ->
        (* round-robin: odd creations land on cpu 1 and die at once,
           even ones pile up behind main on cpu 0 — once cpu 1 drains,
           cpu 0 still holds 3 runnables and cpu 1 must steal (a queue
           is only stolen from while it has >= 2 entries after the
           owner's own pop) *)
        for i = 1 to 4 do
          ignore
            (ok
               (Api.thread_create (fun () ->
                    if i mod 2 = 0 then
                      for _ = 1 to 5 do
                        Api.yield ()
                      done)))
        done;
        for _ = 1 to 8 do
          Api.yield ()
        done)
  in
  check_bool "all exited" true (outcome = Ksim.Kernel.All_exited);
  let g = Ksim.Kstat.global (Ksim.Kernel.kstat t) in
  check_bool "steals happened" true (g.Ksim.Kstat.cpu_steals > 0);
  check_int "every steal is a migration" g.Ksim.Kstat.cpu_steals
    g.Ksim.Kstat.cpu_migrations

(* ------------------------------------------------------------------ *)
(* Trace: per-CPU lanes *)

let test_trace_cpu_lanes () =
  let config = smp_config ~cpus:4 ~trace:true () in
  let t, _ =
    boot ~config (fun _ ->
        ignore
          (ok
             (Api.thread_create (fun () ->
                  Api.yield ();
                  Api.yield ())));
        Api.yield ();
        Api.yield ())
  in
  let tr = Option.get (Ksim.Kernel.trace t) in
  let evs = Ksim.Trace.events tr in
  check_bool "events carry their cpu" true
    (List.for_all (fun e -> e.Ksim.Trace.cpu <> None) evs);
  check_bool "more than one cpu appears" true
    (List.length
       (List.sort_uniq compare (List.map (fun e -> e.Ksim.Trace.cpu) evs))
    > 1);
  let chrome = Metrics.Json.to_string (Ksim.Trace.to_chrome ~lanes:`Cpu tr) in
  check_bool "cpu lane names present" true
    (contains chrome "cpu 0" && contains chrome "cpu 1");
  let pid_chrome = Metrics.Json.to_string (Ksim.Trace.to_chrome tr) in
  check_bool "pid lanes still the default" true (contains pid_chrome "pid 1")

(* ------------------------------------------------------------------ *)
(* Equivalence: cpus=1 vs cpus=4 on scheduling-robust programs *)

(* Program shape whose per-process behaviour cannot depend on the
   schedule: every process maps and touches only regions it created
   itself, synchronises only via waitpid, and writes one console char. *)
type node = { tag : char; pages : int; kids : node list }

let rec gen_node depth rng =
  let pages = 1 + Prng.Splitmix.int rng ~bound:6 in
  let width = if depth = 0 then 0 else Prng.Splitmix.int rng ~bound:3 in
  let kids = List.init width (fun _ -> gen_node (depth - 1) rng) in
  {
    tag = Char.chr (Char.code 'a' + Prng.Splitmix.int rng ~bound:26);
    pages;
    kids;
  }

let rec run_node node () =
  let len = node.pages * 4096 in
  let addr = ok (Api.mmap ~len ~perm:Vmem.Perm.rw) in
  ignore (ok (Api.touch ~addr ~len));
  Api.print (String.make 1 node.tag);
  let pids =
    List.map (fun kid -> ok (Api.fork ~child:(run_node kid))) node.kids
  in
  List.iter (fun pid -> ignore (ok (Api.wait_for pid))) pids;
  ignore (ok (Api.munmap ~addr ~len))

let fingerprint t =
  let sorted_console s =
    let cs = List.sort compare (List.init (String.length s) (String.get s)) in
    String.init (List.length cs) (List.nth cs)
  in
  let g = Ksim.Kstat.global (Ksim.Kernel.kstat t) in
  let statuses =
    List.sort compare
      (List.filter_map
         (fun p ->
           Option.map
             (fun st -> (p.Ksim.Proc.pid, st))
             (Ksim.Kernel.status_of t p.Ksim.Proc.pid))
         (Ksim.Kernel.procs t))
  in
  ( sorted_console (Ksim.Kernel.console t),
    statuses,
    ( g.Ksim.Kstat.syscalls,
      g.Ksim.Kstat.forks,
      g.Ksim.Kstat.faults,
      g.Ksim.Kstat.frames_zeroed,
      g.Ksim.Kstat.cow_breaks ) )

let prop_cpus_1_vs_4 =
  QCheck.Test.make ~count:25
    ~name:"smp: robust programs agree between cpus=1 and cpus=4"
    QCheck.(int_bound 100_000)
    (fun seed ->
      let rng = Prng.Splitmix.create ~seed in
      let tree = { tag = 'r'; pages = 2; kids = [ gen_node 2 rng ] } in
      let run cpus =
        let t, outcome =
          boot ~config:(smp_config ~cpus ()) (fun _ -> run_node tree ())
        in
        if outcome <> Ksim.Kernel.All_exited then
          QCheck.Test.fail_report "did not run to completion";
        fingerprint t
      in
      run 1 = run 4)

(* Every machine runs the same scheduling round, so a one-CPU SMP
   machine schedules exactly like the uniprocessor: the same outcome,
   console and event sequence. Only the TLB model differs (tracked vs.
   broadcast), so the cycle totals do. *)
let prop_smp1_runs_uniprocessor_schedule =
  QCheck.Test.make ~count:25
    ~name:"smp: one CPU runs the uniprocessor's schedule"
    QCheck.(int_bound 100_000)
    (fun seed ->
      let rng = Prng.Splitmix.create ~seed in
      let tree = { tag = 'r'; pages = 2; kids = [ gen_node 2 rng ] } in
      let run smp =
        let config =
          { (smp_config ~cpus:1 ~trace:true ()) with Ksim.Kernel.smp }
        in
        let t, outcome = boot ~config (fun _ -> run_node tree ()) in
        let events =
          List.map
            (fun e ->
              Ksim.Trace.(e.pid, e.tid, e.what, e.phase, e.outcome, e.tick))
            (Ksim.Trace.events (Option.get (Ksim.Kernel.trace t)))
        in
        ( (outcome, Ksim.Kernel.console t, events),
          Vmem.Cost.total (Ksim.Kernel.cost t) )
      in
      let uni, uni_cycles = run false and smp1, smp1_cycles = run true in
      uni = smp1 && uni_cycles <> smp1_cycles)

(* ------------------------------------------------------------------ *)
(* Round dispatch follows CPU order *)

(* A round of [cpu1 munmap; cpu2 fork; cpu3 fork]: the munmap's commit
   release must land before either fork charges its clone. Under Strict
   commit at 6400 frames the two forks of 4 MiB spaces fit only once the
   8 MiB mapping is gone. The three processes leave a shared barrier in
   the same round; the freer then yields once more because [Api.fork]
   spends a round on its atfork_list call before the fork itself. *)
let test_round_dispatches_in_cpu_order () =
  let ready = ref 0 in
  let barrier () =
    incr ready;
    Api.yield ();
    while !ready < 3 do
      Api.yield ()
    done
  in
  let mib n = n * 1024 * 1024 in
  let freer =
    prog "/freer" (fun _ ->
        let addr = ok (Api.mmap ~len:(mib 8) ~perm:Vmem.Perm.rw) in
        barrier ();
        Api.yield ();
        ok (Api.munmap ~addr ~len:(mib 8)))
  in
  let forks = ref [] in
  let forker =
    prog "/forker" (fun _ ->
        ignore (ok (Api.mmap ~len:(mib 4) ~perm:Vmem.Perm.rw));
        barrier ();
        let r = Api.fork ~child:(fun () -> ()) in
        forks := r :: !forks;
        Result.iter (fun pid -> ignore (ok (Api.wait_for pid))) r)
  in
  let config =
    {
      (smp_config ~cpus:4 ()) with
      Ksim.Kernel.phys_pages = 6400;
      commit_policy = Vmem.Frame.Strict;
    }
  in
  let _, outcome =
    boot ~config ~programs:[ freer; forker ] (fun _ ->
        let pids =
          List.map (fun p -> ok (Api.spawn p)) [ "/freer"; "/forker"; "/forker" ]
        in
        List.iter (fun pid -> ignore (ok (Api.wait_for pid))) pids)
  in
  check_bool "all exited" true (outcome = Ksim.Kernel.All_exited);
  check_int "both forks ran" 2 (List.length !forks);
  check_bool "both forks see the munmap's freed commit" true
    (List.for_all Result.is_ok !forks)

(* cpus=1 SMP kernels keep the blame invariant: attributed cycles never
   exceed the cost meter (the exact partition property is test_vmem's;
   here we just check the SMP plumbing feeds the same ledger). *)
let test_smp1_blame_partition () =
  let t, _ =
    boot ~config:(smp_config ~cpus:1 ()) (fun _ ->
        let addr = ok (Api.sbrk 16384) in
        ignore (ok (Api.touch ~addr ~len:16384));
        let c = ok (Api.fork ~child:(fun () -> ())) in
        ignore (ok (Api.wait_for c)))
  in
  let cost_total = Vmem.Cost.total (Ksim.Kernel.cost t) in
  let blame_total =
    List.fold_left
      (fun acc e ->
        acc
        +. Vmem.Cost.total e.Vmem.Blame.sync
        +. Vmem.Cost.total e.Vmem.Blame.deferred)
      0.0
      (Vmem.Blame.events (Ksim.Kernel.blame t))
  in
  check_bool "blame <= cost and both positive" true
    (blame_total > 0.0 && blame_total <= cost_total)

let () =
  Alcotest.run "smp"
    [
      ( "ipis",
        [
          Alcotest.test_case "cold mask, no IPIs" `Quick
            test_fork_cold_mask_no_ipi;
          Alcotest.test_case "warm mask, k IPIs" `Quick
            test_fork_warm_mask_ipis;
          Alcotest.test_case "cow break bills warm CPUs" `Quick
            test_cow_break_ipis_warm_cpus;
        ] );
      ( "scheduler",
        [
          Alcotest.test_case "work stealing" `Quick test_work_stealing;
          Alcotest.test_case "blame on smp1" `Quick test_smp1_blame_partition;
        ] );
      ("trace", [ Alcotest.test_case "cpu lanes" `Quick test_trace_cpu_lanes ]);
      ( "determinism",
        [
          Alcotest.test_case "round dispatches in cpu order" `Quick
            test_round_dispatches_in_cpu_order;
          QCheck_alcotest.to_alcotest prop_cpus_1_vs_4;
          QCheck_alcotest.to_alcotest prop_smp1_runs_uniprocessor_schedule;
        ] );
    ]
