(* Fault-injection invariant checker, run under a fixed seed by the
   @fault-smoke alias (part of `dune runtest`).

   Three layers:
   - unit tests on Ksim.Fault itself (validation, Nth/random triggers,
     determinism of a schedule's injection points);
   - errno hygiene: exhaustive to_string/of_string round-trip, every
     fallible syscall's descriptor (Sysreq.info) admits the injectable
     errnos, and directed runs drive real failure paths, whose replies
     the kernel itself checks against each syscall's domain;
   - the rollback invariants: a failed fork (strict commit or injected
     mid-copy) leaves frame counters, commit charges and the pid table
     exactly as they were; a failed builder start can be retried on the
     same embryo; and a QCheck sweep of random programs x random fault
     schedules never leaks a frame or a commit charge, and never lies
     about an injected errno. *)

let check_int = Alcotest.(check int)
let check_bool = Alcotest.(check bool)

let errno = Alcotest.testable Ksim.Errno.pp Ksim.Errno.equal

let ok = function
  | Ok v -> v
  | Error e -> Alcotest.failf "expected Ok, got %s" (Ksim.Errno.to_string e)

let expect_errno e = function
  | Error got -> Alcotest.check errno "errno" e got
  | Ok _ -> Alcotest.fail "expected Error"

let page = Vmem.Addr.page_size

let prog name body = Ksim.Program.make ~name (fun ~argv () -> body argv)
let true_prog = prog "/bin/true" (fun _ -> Ksim.Api.exit 0)

(* Boot a kernel whose init body can see the machine itself (to read
   fault occurrence counters and frame/kstat state mid-run). *)
let boot_with ?(programs = []) ~config body =
  let tref = ref None in
  let init = prog "/sbin/init" (fun _ -> body (Option.get !tref)) in
  let t = Ksim.Kernel.create ~config () in
  Ksim.Kernel.register_all t (init :: true_prog :: programs);
  tref := Some t;
  (match Ksim.Kernel.spawn_init t "/sbin/init" with
  | Ok _ -> ()
  | Error e -> Alcotest.failf "spawn_init failed: %s" (Ksim.Errno.to_string e));
  let outcome = Ksim.Kernel.run t in
  (t, outcome)

let all_exited = function
  | Ksim.Kernel.All_exited -> ()
  | o -> Alcotest.failf "expected all-exited, got %a" Ksim.Kernel.pp_outcome o

(* A schedule that can never fire: used by probe runs that only want to
   read the occurrence counters a real schedule would index into. *)
let sentinel = { Ksim.Fault.seed = 0; triggers = [ Ksim.Fault.Frame_alloc_nth 1_000_000 ] }

let fi t = Option.get (Ksim.Kernel.fault t)

(* ------------------------------------------------------------------ *)
(* Fault unit tests *)

let test_validate () =
  let valid triggers =
    Result.is_ok (Ksim.Fault.validate { Ksim.Fault.seed = 1; triggers })
  in
  check_bool "empty ok" true (valid []);
  check_bool "nth ok" true (valid [ Ksim.Fault.Frame_alloc_nth 1 ]);
  check_bool "nth 0 rejected" false (valid [ Ksim.Fault.Commit_nth 0 ]);
  check_bool "p > 1 rejected" false (valid [ Ksim.Fault.Frame_alloc_random 1.5 ]);
  check_bool "negative p rejected" false (valid [ Ksim.Fault.Commit_random (-0.1) ]);
  check_bool "injectable errno ok" true
    (valid
       [ Ksim.Fault.Syscall_nth { kind = "fork"; nth = 1; errno = Ksim.Errno.EAGAIN } ]);
  check_bool "EPERM not injectable" false
    (valid
       [ Ksim.Fault.Syscall_nth { kind = "fork"; nth = 1; errno = Ksim.Errno.EPERM } ]);
  check_bool "create raises on bad spec" true
    (try
       ignore
         (Ksim.Fault.create
            { Ksim.Fault.seed = 0; triggers = [ Ksim.Fault.Frame_alloc_nth 0 ] });
       false
     with Invalid_argument _ -> true)

let test_nth_triggers () =
  let f =
    Ksim.Fault.create
      {
        Ksim.Fault.seed = 0;
        triggers =
          [
            Ksim.Fault.Frame_alloc_nth 3;
            Ksim.Fault.Syscall_nth
              { kind = "fork"; nth = 2; errno = Ksim.Errno.EINTR };
          ];
      }
  in
  let denies = List.init 5 (fun _ -> Ksim.Fault.on_frame_alloc f) in
  Alcotest.(check (list bool))
    "only the 3rd alloc denied"
    [ false; false; true; false; false ]
    denies;
  check_int "alloc seen" 5 (Ksim.Fault.seen f Ksim.Fault.Frame_alloc);
  check_int "alloc injected" 1 (Ksim.Fault.injected f Ksim.Fault.Frame_alloc);
  (* per-kind counting: an mmap dispatch does not advance fork's nth *)
  check_bool "mmap not hit" true (Ksim.Fault.on_syscall f ~kind:"mmap" = None);
  check_bool "1st fork not hit" true (Ksim.Fault.on_syscall f ~kind:"fork" = None);
  (match Ksim.Fault.on_syscall f ~kind:"fork" with
  | Some e -> Alcotest.check errno "2nd fork gets EINTR" Ksim.Errno.EINTR e
  | None -> Alcotest.fail "2nd fork should be injected");
  check_int "total" 2 (Ksim.Fault.total_injected f)

(* Same spec, same call sequence: identical injection decisions. *)
let test_determinism () =
  let spec =
    {
      Ksim.Fault.seed = 123;
      triggers =
        [
          Ksim.Fault.Frame_alloc_random 0.3;
          Ksim.Fault.Commit_random 0.2;
          Ksim.Fault.Syscall_random
            { kind = None; p = 0.25; errno = Ksim.Errno.EAGAIN };
        ];
    }
  in
  let run () =
    let f = Ksim.Fault.create spec in
    List.init 300 (fun i ->
        match i mod 3 with
        | 0 -> string_of_bool (Ksim.Fault.on_frame_alloc f)
        | 1 -> string_of_bool (Ksim.Fault.on_commit f)
        | _ -> (
          match Ksim.Fault.on_syscall f ~kind:"mmap" with
          | None -> "-"
          | Some e -> Ksim.Errno.to_string e))
  in
  Alcotest.(check (list string)) "identical decisions" (run ()) (run ())

(* ------------------------------------------------------------------ *)
(* Errno hygiene *)

let test_errno_roundtrip () =
  List.iter
    (fun e ->
      Alcotest.(check (option errno))
        (Ksim.Errno.to_string e) (Some e)
        (Ksim.Errno.of_string (Ksim.Errno.to_string e)))
    Ksim.Errno.all;
  let names = List.map Ksim.Errno.to_string Ksim.Errno.all in
  check_int "names distinct"
    (List.length names)
    (List.length (List.sort_uniq compare names));
  check_bool "unknown is None" true (Ksim.Errno.of_string "ENOSUCH" = None)

(* A request of any reply type, for tables of sample requests. *)
type req = Req : 'a Ksim.Sysreq.t -> req

let test_errno_domains () =
  (* every fallible syscall has a domain, and the domain always admits
     the injectable transients *)
  let nop () = () in
  List.iter
    (fun (name, Req req) ->
      let info = Ksim.Sysreq.info req in
      Alcotest.(check string) "descriptor name" name info.Ksim.Sysreq.name;
      (match info.Ksim.Sysreq.reply with
      | Ksim.Sysreq.Fallible _ -> ()
      | Ksim.Sysreq.Total -> Alcotest.failf "%s has no errno domain" name);
      List.iter
        (fun e ->
          check_bool
            (Printf.sprintf "%s domain has %s" name (Ksim.Errno.to_string e))
            true
            (Ksim.Sysreq.admits info e))
        Ksim.Fault.injectable)
    Ksim.Sysreq.
      [
        ("fork", Req (Fork nop));
        ("vfork", Req (Vfork nop));
        ( "posix_spawn",
          Req
            (Spawn
               {
                 Ksim.Types.path = "/bin/true";
                 argv = [];
                 file_actions = [];
                 attr = Ksim.Types.default_attr;
               }) );
        ("execve", Req (Exec { path = "/bin/true"; argv = [] }));
        ("waitpid", Req (Waitpid Ksim.Types.Any_child));
        ("open", Req (Open ("/missing", Ksim.Types.o_rdonly)));
        ("close", Req (Close 3));
        ("read", Req (Read (3, 1)));
        ("write", Req (Write (3, "x")));
        ("mmap", Req (Mmap { len = page; perm = Vmem.Perm.rw }));
        ("munmap", Req (Munmap { addr = 0; len = page }));
        ("kill", Req (Kill (2, Ksim.Usignal.SIGTERM)));
        ("pipe", Req Pipe);
        ("dup", Req (Dup 3));
        ("dup2", Req (Dup2 { src = 3; dst = 4 }));
        ("pb_create", Req Pb_create);
        ("pb_start", Req (Pb_start { pid = 2; path = "/bin/true"; argv = [] }));
        ("template_freeze", Req (Template_freeze { pid = None }));
        ("template_spawn", Req (Template_spawn { tpl = 1; body = nop }));
        ("template_discard", Req (Template_discard 1));
      ];
  (* infallible syscalls have none *)
  check_bool "getpid has no domain" false
    (List.exists
       (Ksim.Sysreq.admits (Ksim.Sysreq.info Ksim.Sysreq.Getpid))
       Ksim.Errno.all)

(* The (syscall, errno) of every failed span in a trace, oldest first. *)
let traced_errors t =
  List.filter_map
    (fun (e : Ksim.Trace.event) ->
      match (e.Ksim.Trace.phase, e.Ksim.Trace.outcome) with
      | Ksim.Trace.End, Some (Ksim.Trace.Err err) -> Some (e.Ksim.Trace.what, err)
      | _ -> None)
    (Ksim.Trace.events (Option.get (Ksim.Kernel.trace t)))

let traced =
  { Ksim.Kernel.default_config with Ksim.Kernel.trace_capacity = Some 4096 }

(* Drive a handful of real failure paths. The kernel checks every reply
   against its syscall's domain (an errno outside it raises), and the
   trace records each failure as an errno outcome. *)
let test_traced_errnos_in_domain () =
  let t, outcome =
    boot_with ~config:traced (fun _ ->
        expect_errno Ksim.Errno.ENOENT
          (Ksim.Api.openf ~flags:Ksim.Types.o_rdonly "/missing");
        expect_errno Ksim.Errno.EBADF (Ksim.Api.close 99);
        expect_errno Ksim.Errno.ECHILD (Ksim.Api.wait_for 999);
        expect_errno Ksim.Errno.ESRCH (Ksim.Api.kill 999 Ksim.Usignal.SIGTERM);
        expect_errno Ksim.Errno.ENOENT (Ksim.Api.spawn "/missing");
        expect_errno Ksim.Errno.EBADF (Ksim.Api.dup 99);
        (match Ksim.Api.read 99 1 with
        | Error _ -> ()
        | Ok _ -> Alcotest.fail "read of bad fd succeeded"))
  in
  all_exited outcome;
  check_bool "saw failures" true (List.length (traced_errors t) >= 6)

(* Failure paths no test workload reaches. Each errno must lie in its
   syscall's domain, or the kernel raises. *)
let test_drifted_errno_domains () =
  let yielder =
    prog "/bin/yielder" (fun _ ->
        for _ = 1 to 3 do
          Ksim.Api.yield ()
        done;
        Ksim.Api.exit 0)
  in
  let t, outcome =
    boot_with ~programs:[ yielder ] ~config:traced (fun _ ->
        let sock = ok (Ksim.Api.socket ()) in
        expect_errno Ksim.Errno.EINVAL (Ksim.Api.write sock "x");
        expect_errno Ksim.Errno.EINVAL
          (Ksim.Api.mem_read ~addr:Ksim.Kernel.image_base ~len:(-1));
        let pid = ok (Ksim.Api.pb_create ()) in
        let addr = ok (Ksim.Api.pb_map ~pid ~len:page ~perm:Vmem.Perm.r) in
        expect_errno Ksim.Errno.EACCES (Ksim.Api.pb_write ~pid ~addr "x");
        expect_errno Ksim.Errno.EINVAL
          (Ksim.Api.pb_copy_fd ~pid ~src:1 ~dst:100_000);
        ok (Ksim.Api.pb_start ~pid "/bin/yielder");
        (* a started child is no longer an embryo *)
        expect_errno Ksim.Errno.EINVAL (Ksim.Api.pb_write ~pid ~addr "x");
        expect_errno Ksim.Errno.EINVAL (Ksim.Api.pb_copy_fd ~pid ~src:1 ~dst:3);
        ignore (ok (Ksim.Api.wait_for pid)))
  in
  all_exited outcome;
  Alcotest.(check (list (pair string errno)))
    "traced failures"
    Ksim.Errno.
      [
        ("write", EINVAL);
        ("mem_read", EINVAL);
        ("pb_write", EACCES);
        ("pb_copy_fd", EINVAL);
        ("pb_write", EINVAL);
        ("pb_copy_fd", EINVAL);
      ]
    (traced_errors t)

(* ------------------------------------------------------------------ *)
(* Rollback invariants *)

let frame_counter_keys =
  [ "frames-copied"; "frames-zeroed"; "pt-pages-copied"; "ptes-copied" ]

let frame_counters t =
  List.filter
    (fun (k, _) -> List.mem k frame_counter_keys)
    (Ksim.Kstat.snapshot (Ksim.Kstat.global (Ksim.Kernel.kstat t)))

let pid_table t =
  List.sort compare (List.map (fun p -> p.Ksim.Proc.pid) (Ksim.Kernel.procs t))

type machine_snap = {
  used : int;
  committed : int;
  counters : (string * int) list;
  pids : int list;
}

let snap t =
  {
    used = Vmem.Frame.used (Ksim.Kernel.frames t);
    committed = Vmem.Frame.committed (Ksim.Kernel.frames t);
    counters = frame_counters t;
    pids = pid_table t;
  }

let check_snap_eq msg a b =
  check_int (msg ^ ": frames used") a.used b.used;
  check_int (msg ^ ": commit charge") a.committed b.committed;
  Alcotest.(check (list (pair string int)))
    (msg ^ ": frame counters") a.counters b.counters;
  Alcotest.(check (list int)) (msg ^ ": pid table") a.pids b.pids

(* The ISSUE 4 regression: a fork refused by strict commit accounting
   must leave the machine exactly as it found it. *)
let test_failed_fork_strict_commit () =
  let config =
    {
      Ksim.Kernel.default_config with
      Ksim.Kernel.phys_pages = 2048;
      commit_policy = Vmem.Frame.Strict;
      aslr = false;
    }
  in
  let t, outcome =
    boot_with ~config (fun t ->
        let len = 1200 * page in
        let addr = ok (Ksim.Api.mmap ~len ~perm:Vmem.Perm.rw) in
        ignore (ok (Ksim.Api.touch ~addr ~len));
        let before = snap t in
        expect_errno Ksim.Errno.ENOMEM
          (Ksim.Api.fork ~child:(fun () -> Ksim.Api.exit 0));
        check_snap_eq "failed fork" before (snap t);
        (* the parent is untouched and still fully usable *)
        ignore (ok (Ksim.Api.touch ~addr ~len)))
  in
  all_exited outcome;
  check_int "no frame leak" 0 (Vmem.Frame.used (Ksim.Kernel.frames t));
  check_int "no commit leak" 0 (Vmem.Frame.committed (Ksim.Kernel.frames t))

(* An eager fork killed mid frame-copy by an injected allocation failure
   must undo the partial child: probe run finds the allocation count at
   the fork call, the real run fails allocation 10 of the copy. The copy
   counters legitimately move (work was done, then undone), so the
   equality check covers frames, commit charge and the pid table. *)
let test_injected_fork_eager_rollback () =
  let config =
    {
      Ksim.Kernel.default_config with
      Ksim.Kernel.phys_pages = 65_536;
      aslr = false;
    }
  in
  let body ~handle t =
    let len = 64 * page in
    let addr = ok (Ksim.Api.mmap ~len ~perm:Vmem.Perm.rw) in
    ignore (ok (Ksim.Api.touch ~addr ~len));
    let allocs_before = Ksim.Fault.seen (fi t) Ksim.Fault.Frame_alloc in
    let before = snap t in
    let r = Ksim.Api.fork_eager ~child:(fun () -> Ksim.Api.exit 0) in
    handle t ~allocs_before ~before r
  in
  (* probe: where does the eager fork start allocating? *)
  let at_fork = ref 0 in
  let config_probe = { config with Ksim.Kernel.fault = Some sentinel } in
  let _, outcome =
    boot_with ~config:config_probe
      (body ~handle:(fun _ ~allocs_before ~before:_ r ->
           at_fork := allocs_before;
           match r with
           | Ok pid -> ignore (ok (Ksim.Api.wait_for pid))
           | Error e -> Alcotest.failf "probe fork failed: %s" (Ksim.Errno.to_string e)))
  in
  all_exited outcome;
  (* real run: deny the 10th allocation of the copy *)
  let fault =
    {
      Ksim.Fault.seed = 0;
      triggers = [ Ksim.Fault.Frame_alloc_nth (!at_fork + 10) ];
    }
  in
  let config = { config with Ksim.Kernel.fault = Some fault } in
  let t, outcome =
    boot_with ~config
      (body ~handle:(fun t ~allocs_before:_ ~before r ->
           (match r with
           | Ok _ -> Alcotest.fail "eager fork should have been denied"
           | Error e -> Alcotest.check errno "injected errno" Ksim.Errno.ENOMEM e);
           let after = snap t in
           check_int "frames restored" before.used after.used;
           check_int "commit restored" before.committed after.committed;
           Alcotest.(check (list int)) "pid table restored" before.pids after.pids;
           (* rollback left the machine usable: the same fork now succeeds *)
           let pid = ok (Ksim.Api.fork_eager ~child:(fun () -> Ksim.Api.exit 0)) in
           ignore (ok (Ksim.Api.wait_for pid))))
  in
  all_exited outcome;
  check_int "one injection" 1 (Ksim.Fault.injected (fi t) Ksim.Fault.Frame_alloc);
  check_int "kstat saw it" 1
    (List.assoc "inj-frame-allocs"
       (Ksim.Kstat.snapshot (Ksim.Kstat.global (Ksim.Kernel.kstat t))));
  check_int "no frame leak" 0 (Vmem.Frame.used (Ksim.Kernel.frames t));
  check_int "no commit leak" 0 (Vmem.Frame.committed (Ksim.Kernel.frames t))

(* A pb_start killed mid image-load must unmap the partial image: the
   same embryo can then be started again (the pre-fix failure mode was
   EINVAL from the overlap with the leaked half-image). *)
let test_pb_start_retry_after_injected_failure () =
  let config =
    { Ksim.Kernel.default_config with Ksim.Kernel.aslr = false }
  in
  (* probe: allocation count at the moment start is called *)
  let at_start = ref 0 in
  let config_probe = { config with Ksim.Kernel.fault = Some sentinel } in
  let _, outcome =
    boot_with ~config:config_probe (fun t ->
        let b = ok (Forkroad.Procbuilder.create ()) in
        ok (Forkroad.Procbuilder.copy_stdio b);
        at_start := Ksim.Fault.seen (fi t) Ksim.Fault.Frame_alloc;
        ok (Forkroad.Procbuilder.start b "/bin/true");
        ignore (ok (Ksim.Api.wait_for (Forkroad.Procbuilder.pid b))))
  in
  all_exited outcome;
  let fault =
    {
      Ksim.Fault.seed = 0;
      triggers = [ Ksim.Fault.Frame_alloc_nth (!at_start + 1) ];
    }
  in
  let config = { config with Ksim.Kernel.fault = Some fault } in
  let t, outcome =
    boot_with ~config (fun _ ->
        let b = ok (Forkroad.Procbuilder.create ()) in
        ok (Forkroad.Procbuilder.copy_stdio b);
        expect_errno Ksim.Errno.ENOMEM (Forkroad.Procbuilder.start b "/bin/true");
        (* retry on the same embryo: rollback must have unmapped the
           partial image, so this is not an overlap error *)
        ok (Forkroad.Procbuilder.start b "/bin/true");
        ignore (ok (Ksim.Api.wait_for (Forkroad.Procbuilder.pid b))))
  in
  all_exited outcome;
  check_int "one injection" 1 (Ksim.Fault.injected (fi t) Ksim.Fault.Frame_alloc);
  check_int "no frame leak" 0 (Vmem.Frame.used (Ksim.Kernel.frames t));
  check_int "no commit leak" 0 (Vmem.Frame.committed (Ksim.Kernel.frames t))

(* A first touch denied at the pager fetch must roll back cleanly: the
   pages resolved before the denial keep their frames (touch is
   restartable, like the hardware fault it models), the denied page
   allocates nothing and stays lazy, the commit charge (paid at map
   time, not fault time) never moves, the pid table is intact, and
   retrying the same touch finishes the job. *)
let test_injected_pager_fetch_rollback () =
  (* init's image under Program.make defaults: 64 KiB text + 16 KiB
     data, both mapped lazily when demand paging is on *)
  let text_pages = 16 and data_pages = 4 in
  let data_base = Ksim.Kernel.image_base + (text_pages * page) in
  let fault =
    { Ksim.Fault.seed = 0; triggers = [ Ksim.Fault.Pager_fetch_nth 3 ] }
  in
  let config =
    {
      Ksim.Kernel.default_config with
      Ksim.Kernel.aslr = false;
      demand_paging = true;
      fault = Some fault;
    }
  in
  let t, outcome =
    boot_with ~config (fun t ->
        let me = Option.get (Ksim.Kernel.find_proc t (Ksim.Api.getpid ())) in
        let lazies () = Vmem.Addr_space.lazy_pages me.Ksim.Proc.aspace in
        check_int "whole image mapped lazily" (text_pages + data_pages)
          (lazies ());
        let before = snap t in
        expect_errno Ksim.Errno.ENOMEM
          (Ksim.Api.touch ~addr:data_base ~len:(data_pages * page));
        let after = snap t in
        check_int "only the 2 pages resolved before the denial hold frames"
          (before.used + 2) after.used;
        check_int "denied page still lazy, no half-state"
          (text_pages + data_pages - 2)
          (lazies ());
        check_int "commit charge unmoved" before.committed after.committed;
        Alcotest.(check (list int)) "pid table intact" before.pids after.pids;
        (* the denial was transient: the same touch now completes *)
        ignore (ok (Ksim.Api.touch ~addr:data_base ~len:(data_pages * page)));
        check_int "data segment fully resident" text_pages (lazies ());
        check_int "all data frames arrived" (before.used + data_pages)
          (Vmem.Frame.used (Ksim.Kernel.frames t)))
  in
  all_exited outcome;
  check_int "one injection" 1 (Ksim.Fault.injected (fi t) Ksim.Fault.Pager_fetch);
  check_int "kstat saw it" 1
    (List.assoc "inj-pager-fetches"
       (Ksim.Kstat.snapshot (Ksim.Kstat.global (Ksim.Kernel.kstat t))));
  check_int "no frame leak" 0 (Vmem.Frame.used (Ksim.Kernel.frames t));
  check_int "no commit leak" 0 (Vmem.Frame.committed (Ksim.Kernel.frames t))

(* An injected syscall-level failure never runs the handler: a denied
   fork creates no child and a retrying spawn absorbs the transient. *)
let test_injected_syscall_and_retry () =
  let fault =
    {
      Ksim.Fault.seed = 11;
      triggers =
        [
          Ksim.Fault.Syscall_nth
            { kind = "fork"; nth = 1; errno = Ksim.Errno.EAGAIN };
          Ksim.Fault.Syscall_nth
            { kind = "pb_create"; nth = 1; errno = Ksim.Errno.EAGAIN };
        ];
    }
  in
  let config =
    {
      Ksim.Kernel.default_config with
      Ksim.Kernel.aslr = false;
      fault = Some fault;
    }
  in
  let t, outcome =
    boot_with ~config (fun t ->
        let before = pid_table t in
        expect_errno Ksim.Errno.EAGAIN
          (Ksim.Api.fork ~child:(fun () -> Ksim.Api.exit 0));
        Alcotest.(check (list int)) "no child registered" before (pid_table t);
        (* second fork passes (the schedule only kills the first) *)
        let pid = ok (Ksim.Api.fork ~child:(fun () -> Ksim.Api.exit 0)) in
        ignore (ok (Ksim.Api.wait_for pid));
        (* the retry policy rides out the injected pb_create failure *)
        let pid = ok (Forkroad.Procbuilder.spawn_retrying "/bin/true") in
        ignore (ok (Ksim.Api.wait_for pid)))
  in
  all_exited outcome;
  check_int "two injections" 2 (Ksim.Fault.injected (fi t) Ksim.Fault.Syscall);
  check_int "kstat agrees" 2
    (List.assoc "inj-syscalls"
       (Ksim.Kstat.snapshot (Ksim.Kstat.global (Ksim.Kernel.kstat t))))

(* An injected transient on a zygote spawn is transactional by
   construction (dispatch denies the syscall before the handler runs):
   the template's counters never move and the next spawn succeeds. *)
let test_injected_template_spawn () =
  let fault =
    {
      Ksim.Fault.seed = 0;
      triggers =
        [
          Ksim.Fault.Syscall_nth
            { kind = "template_spawn"; nth = 1; errno = Ksim.Errno.EAGAIN };
        ];
    }
  in
  let config =
    {
      Ksim.Kernel.default_config with
      Ksim.Kernel.aslr = false;
      fault = Some fault;
    }
  in
  let t, outcome =
    boot_with ~config (fun t ->
        let addr = ok (Ksim.Api.mmap ~len:(8 * page) ~perm:Vmem.Perm.rw) in
        ignore (ok (Ksim.Api.touch ~addr ~len:(8 * page)));
        let before = snap t in
        let tpl = ok (Ksim.Api.freeze ()) in
        let template = Option.get (Ksim.Kernel.find_template t tpl) in
        expect_errno Ksim.Errno.EAGAIN
          (Ksim.Api.spawn_from_template tpl ~child:(fun () -> Ksim.Api.exit 0));
        check_int "spawns unmoved" 0 template.Ksim.Template.spawns;
        check_int "deps unmoved" 1 template.Ksim.Template.live_deps;
        Alcotest.(check (list int)) "pid table unmoved" before.pids (pid_table t);
        let pid =
          ok (Ksim.Api.spawn_from_template tpl ~child:(fun () -> Ksim.Api.exit 0))
        in
        ignore (ok (Ksim.Api.wait_for pid));
        check_int "second spawn counted" 1 template.Ksim.Template.spawns)
  in
  all_exited outcome;
  check_int "one injection" 1 (Ksim.Fault.injected (fi t) Ksim.Fault.Syscall);
  (* only the template's pinned pages survive *)
  let tpl_pages =
    List.fold_left
      (fun acc tpl -> acc + tpl.Ksim.Template.resident)
      0 (Ksim.Kernel.templates t)
  in
  check_int "used = pinned template pages" tpl_pages
    (Vmem.Frame.used (Ksim.Kernel.frames t));
  check_int "no commit leak" 0 (Vmem.Frame.committed (Ksim.Kernel.frames t))

(* Retry policy unit behaviour: attempts are bounded, delays grow
   geometrically under the cap, and the give-up error is the last real
   one. *)
let test_retry_policy () =
  let p =
    {
      Spawnlib.Retry.max_attempts = 4;
      initial_delay = 1.0;
      backoff = 2.0;
      max_delay = 3.0;
    }
  in
  Alcotest.(check (list (float 1e-9)))
    "delays capped" [ 1.0; 2.0; 3.0 ] (Spawnlib.Retry.delays p);
  let calls = ref 0 and slept = ref [] in
  let r =
    Spawnlib.Retry.with_policy p
      ~sleep:(fun d -> slept := d :: !slept)
      ~should_retry:(fun _ -> true)
      (fun ~attempt ->
        incr calls;
        check_int "attempt number" !calls attempt;
        Error Ksim.Errno.EAGAIN)
  in
  expect_errno Ksim.Errno.EAGAIN r;
  check_int "bounded attempts" 4 !calls;
  Alcotest.(check (list (float 1e-9)))
    "slept the schedule" [ 1.0; 2.0; 3.0 ] (List.rev !slept);
  (* non-transient errors give up immediately *)
  calls := 0;
  let r =
    Spawnlib.Retry.with_policy p
      ~sleep:(fun _ -> ())
      ~should_retry:(fun e -> e <> Ksim.Errno.ENOENT)
      (fun ~attempt:_ ->
        incr calls;
        Error Ksim.Errno.ENOENT)
  in
  expect_errno Ksim.Errno.ENOENT r;
  check_int "no retry on permanent error" 1 !calls;
  (* success stops the loop *)
  calls := 0;
  let r =
    Spawnlib.Retry.with_policy p
      ~sleep:(fun _ -> ())
      ~should_retry:(fun _ -> true)
      (fun ~attempt -> if attempt < 3 then Error Ksim.Errno.EAGAIN else Ok attempt)
  in
  check_int "succeeds on 3rd try" 3 (ok r)

(* Retry edge cases: a zero-attempt policy is rejected before any work,
   a backoff schedule that lands exactly on the cap stays there without
   overshoot, and the builder's retry backoff burns simulated slices,
   not wall-clock seconds. *)
let test_retry_zero_attempts () =
  let bad =
    {
      Spawnlib.Retry.max_attempts = 0;
      initial_delay = 1.0;
      backoff = 2.0;
      max_delay = 4.0;
    }
  in
  Alcotest.check_raises "delays" (Invalid_argument "Retry: max_attempts < 1")
    (fun () -> ignore (Spawnlib.Retry.delays bad));
  let calls = ref 0 in
  Alcotest.check_raises "with_policy"
    (Invalid_argument "Retry: max_attempts < 1") (fun () ->
      ignore
        (Spawnlib.Retry.with_policy bad
           ~sleep:(fun _ -> ())
           ~should_retry:(fun _ -> true)
           (fun ~attempt:_ ->
             incr calls;
             (Error Ksim.Errno.EAGAIN : (unit, _) result))));
  check_int "function never ran" 0 !calls

let test_retry_backoff_cap_exact () =
  (* 1, 2, 4 = cap hit exactly on the 3rd delay; later delays hold at
     the cap rather than oscillating or overshooting *)
  let p =
    {
      Spawnlib.Retry.max_attempts = 6;
      initial_delay = 1.0;
      backoff = 2.0;
      max_delay = 4.0;
    }
  in
  Alcotest.(check (list (float 1e-9)))
    "cap reached exactly, then held"
    [ 1.0; 2.0; 4.0; 4.0; 4.0 ]
    (Spawnlib.Retry.delays p);
  let slept = ref [] in
  let r =
    Spawnlib.Retry.with_policy p
      ~sleep:(fun d -> slept := d :: !slept)
      ~should_retry:(fun _ -> true)
      (fun ~attempt:_ -> Error Ksim.Errno.EAGAIN)
  in
  expect_errno Ksim.Errno.EAGAIN r;
  Alcotest.(check (list (float 1e-9)))
    "with_policy sleeps exactly delays p" (Spawnlib.Retry.delays p)
    (List.rev !slept)

let test_builder_retry_sim_time () =
  (* three injected transient failures force the full backoff schedule;
     with wall-clock sleeps this test would take >= 3 real seconds *)
  let fault =
    {
      Ksim.Fault.seed = 11;
      triggers =
        [
          Ksim.Fault.Syscall_nth
            { kind = "pb_create"; nth = 1; errno = Ksim.Errno.EAGAIN };
          Ksim.Fault.Syscall_nth
            { kind = "pb_create"; nth = 2; errno = Ksim.Errno.EAGAIN };
          Ksim.Fault.Syscall_nth
            { kind = "pb_create"; nth = 3; errno = Ksim.Errno.EAGAIN };
        ];
    }
  in
  let config = { Ksim.Kernel.default_config with Ksim.Kernel.fault = Some fault } in
  let policy =
    {
      Spawnlib.Retry.max_attempts = 4;
      initial_delay = 1.0;
      backoff = 1.0;
      max_delay = 1.0;
    }
  in
  let wall0 = Unix.gettimeofday () in
  let t, outcome =
    boot_with ~config (fun t ->
        let before = Ksim.Kernel.clock t in
        let pid = ok (Forkroad.Procbuilder.spawn_retrying ~policy "/bin/true") in
        ignore (ok (Ksim.Api.wait_for pid));
        check_bool "backoff advanced the simulated clock" true
          (Ksim.Kernel.clock t > before))
  in
  all_exited outcome;
  check_int "all three faults fired" 3
    (Ksim.Fault.injected (fi t) Ksim.Fault.Syscall);
  check_bool "no wall-clock sleeping" true (Unix.gettimeofday () -. wall0 < 1.0)

(* ------------------------------------------------------------------ *)
(* QCheck: random programs x random fault schedules *)

type fop =
  | F_mmap_touch of int
  | F_warm_image
  | F_fork
  | F_fork_eager
  | F_vfork
  | F_spawn
  | F_builder
  | F_builder_retry
  | F_brk
  | F_yield
  | F_freeze
  | F_tpl_spawn of int
  | F_tpl_discard of int
  | F_sock_echo
  | F_sock_write_unconnected
  | F_sock_accept_unlistening

let with_socket f =
  match Ksim.Api.socket () with
  | Ok fd ->
    f fd;
    ignore (Ksim.Api.close fd)
  | Error _ -> ()

(* [port] is fresh for every op of a run, so a socket an injected
   failure left open never holds it. *)
let run_fop ~port op =
  match op with
  | F_mmap_touch pages -> (
    match Ksim.Api.mmap ~len:(pages * page) ~perm:Vmem.Perm.rw with
    | Ok addr -> ignore (Ksim.Api.touch ~addr ~len:(pages * page))
    | Error _ -> ())
  | F_warm_image ->
    (* resolve the caller's own image pages (data by write-touch, text
       by reading) — under demand paging these are lazy PTEs, so this is
       the op that actually drives the Pager_fetch triggers; under eager
       paging it is a cheap no-op on already-present pages *)
    ignore (Ksim.Api.touch ~addr:(Ksim.Kernel.image_base + (64 * 1024)) ~len:(16 * 1024));
    ignore (Ksim.Api.mem_read ~addr:Ksim.Kernel.image_base ~len:(64 * 1024))
  | F_fork -> (
    match Ksim.Api.fork ~child:(fun () -> Ksim.Api.exit 0) with
    | Ok _ | Error _ -> ())
  | F_fork_eager -> (
    match Ksim.Api.fork_eager ~child:(fun () -> Ksim.Api.exit 0) with
    | Ok _ | Error _ -> ())
  | F_vfork -> (
    match Ksim.Api.vfork ~child:(fun () -> Ksim.Api.exit 0) with
    | Ok _ | Error _ -> ())
  | F_spawn -> ( match Ksim.Api.spawn "/bin/true" with Ok _ | Error _ -> ())
  | F_builder -> (
    match Forkroad.Procbuilder.spawn_minimal "/bin/true" with Ok _ | Error _ -> ())
  | F_builder_retry -> (
    match Forkroad.Procbuilder.spawn_retrying "/bin/true" with Ok _ | Error _ -> ())
  | F_brk -> ( match Ksim.Api.sbrk page with Ok _ | Error _ -> ())
  | F_yield -> Ksim.Api.yield ()
  | F_freeze -> ( match Ksim.Api.freeze () with Ok _ | Error _ -> ())
  | F_tpl_spawn id -> (
    match Ksim.Api.spawn_from_template id ~child:(fun () -> Ksim.Api.exit 0) with
    | Ok _ | Error _ -> ())
  | F_tpl_discard id -> (
    match Ksim.Api.template_discard id with Ok _ | Error _ -> ())
  | F_sock_echo ->
    (* listen, connect to ourselves, accept, and echo a few bytes; each
       step runs only once the steps before it succeeded, so none of
       them blocks *)
    with_socket (fun lfd ->
        if
          Result.is_ok (Ksim.Api.bind lfd ~port)
          && Result.is_ok (Ksim.Api.listen lfd ~backlog:1)
        then
          with_socket (fun cfd ->
              if Result.is_ok (Ksim.Api.connect cfd ~port) then
                match Ksim.Api.accept lfd with
                | Error _ -> ()
                | Ok sfd ->
                  (match Ksim.Api.write cfd "ping" with
                  | Ok n when n > 0 -> ignore (Ksim.Api.read sfd n)
                  | Ok _ | Error _ -> ());
                  ignore (Ksim.Api.close sfd)))
  | F_sock_write_unconnected ->
    with_socket (fun fd -> ignore (Ksim.Api.write fd "x"))
  | F_sock_accept_unlistening ->
    with_socket (fun fd -> ignore (Ksim.Api.accept fd))

let gen_fop =
  QCheck.Gen.oneof
    [
      QCheck.Gen.map (fun n -> F_mmap_touch (1 + n)) (QCheck.Gen.int_bound 7);
      QCheck.Gen.return F_warm_image;
      QCheck.Gen.return F_fork;
      QCheck.Gen.return F_fork_eager;
      QCheck.Gen.return F_vfork;
      QCheck.Gen.return F_spawn;
      QCheck.Gen.return F_builder;
      QCheck.Gen.return F_builder_retry;
      QCheck.Gen.return F_brk;
      QCheck.Gen.return F_yield;
      QCheck.Gen.return F_freeze;
      QCheck.Gen.map (fun n -> F_tpl_spawn (1 + n)) (QCheck.Gen.int_bound 2);
      QCheck.Gen.map (fun n -> F_tpl_discard (1 + n)) (QCheck.Gen.int_bound 2);
      QCheck.Gen.return F_sock_echo;
      QCheck.Gen.return F_sock_write_unconnected;
      QCheck.Gen.return F_sock_accept_unlistening;
    ]

let gen_errno = QCheck.Gen.oneofl Ksim.Fault.injectable

let gen_trigger =
  let open QCheck.Gen in
  oneof
    [
      map (fun n -> Ksim.Fault.Frame_alloc_nth (1 + n)) (int_bound 400);
      map (fun n -> Ksim.Fault.Commit_nth (1 + n)) (int_bound 40);
      map2
        (fun n e -> Ksim.Fault.Syscall_nth { kind = "fork"; nth = 1 + n; errno = e })
        (int_bound 3) gen_errno;
      map2
        (fun n e ->
          Ksim.Fault.Syscall_nth { kind = "template_spawn"; nth = 1 + n; errno = e })
        (int_bound 2) gen_errno;
      map
        (fun p -> Ksim.Fault.Frame_alloc_random (0.02 *. float_of_int p))
        (int_bound 5);
      map
        (fun p -> Ksim.Fault.Commit_random (0.02 *. float_of_int p))
        (int_bound 5);
      map2
        (fun p e ->
          Ksim.Fault.Syscall_random
            { kind = None; p = 0.01 *. float_of_int p; errno = e })
        (int_bound 5) gen_errno;
      map (fun n -> Ksim.Fault.Pager_fetch_nth (1 + n)) (int_bound 40);
      map
        (fun p -> Ksim.Fault.Pager_fetch_random (0.02 *. float_of_int p))
        (int_bound 5);
    ]

let gen_case =
  QCheck.Gen.quad (QCheck.Gen.int_bound 10_000)
    (QCheck.Gen.list_size (QCheck.Gen.int_range 0 4) gen_trigger)
    (QCheck.Gen.list_size (QCheck.Gen.int_range 0 15) gen_fop)
    (QCheck.Gen.pair QCheck.Gen.bool (QCheck.Gen.int_bound 3))

let show_trigger = function
  | Ksim.Fault.Frame_alloc_nth n -> Printf.sprintf "alloc#%d" n
  | Ksim.Fault.Commit_nth n -> Printf.sprintf "commit#%d" n
  | Ksim.Fault.Syscall_nth { kind; nth; errno } ->
    Printf.sprintf "%s#%d=%s" kind nth (Ksim.Errno.to_string errno)
  | Ksim.Fault.Frame_alloc_random p -> Printf.sprintf "alloc~%.2f" p
  | Ksim.Fault.Commit_random p -> Printf.sprintf "commit~%.2f" p
  | Ksim.Fault.Syscall_random { kind; p; errno } ->
    Printf.sprintf "%s~%.2f=%s"
      (Option.value ~default:"*" kind)
      p (Ksim.Errno.to_string errno)
  | Ksim.Fault.Pager_fetch_nth n -> Printf.sprintf "pager#%d" n
  | Ksim.Fault.Pager_fetch_random p -> Printf.sprintf "pager~%.2f" p

let show_fop = function
  | F_mmap_touch n -> Printf.sprintf "mmap%d" n
  | F_warm_image -> "warm_image"
  | F_fork -> "fork"
  | F_fork_eager -> "fork_eager"
  | F_vfork -> "vfork"
  | F_spawn -> "spawn"
  | F_builder -> "builder"
  | F_builder_retry -> "builder_retry"
  | F_brk -> "brk"
  | F_yield -> "yield"
  | F_freeze -> "freeze"
  | F_tpl_spawn id -> Printf.sprintf "tpl_spawn%d" id
  | F_tpl_discard id -> Printf.sprintf "tpl_discard%d" id
  | F_sock_echo -> "sock_echo"
  | F_sock_write_unconnected -> "sock_write_unconnected"
  | F_sock_accept_unlistening -> "sock_accept_unlistening"

let show_case (seed, triggers, ops, (demand, readahead)) =
  Printf.sprintf "seed=%d faults=[%s] ops=[%s] demand=%b ra=%d" seed
    (String.concat "; " (List.map show_trigger triggers))
    (String.concat "; " (List.map show_fop ops))
    demand readahead

(* The tentpole invariant: under ANY fault schedule, when everything has
   exited no frame and no commit charge is leaked, and every span the
   kernel stamped as injected carries exactly the injected errno. *)
let prop_fault_schedules =
  QCheck.Test.make ~count:120
    ~name:"fault schedules: no leaks, honest errnos"
    (QCheck.make ~print:show_case gen_case)
    (fun (seed, triggers, ops, (demand, readahead)) ->
      let spec = { Ksim.Fault.seed; triggers } in
      let config =
        {
          Ksim.Kernel.default_config with
          Ksim.Kernel.phys_pages = 4096;
          commit_policy = Vmem.Frame.Strict;
          aslr = false;
          trace_capacity = Some 8192;
          fault = Some spec;
          demand_paging = demand;
          pager_readahead = readahead;
        }
      in
      let init =
        Ksim.Program.make ~name:"/sbin/init" (fun ~argv:_ () ->
            List.iteri (fun i op -> run_fop ~port:(8000 + i) op) ops;
            ignore (Ksim.Api.wait_all ()))
      in
      match Ksim.Kernel.boot ~config ~programs:[ init; true_prog ] "/sbin/init" with
      | Error Ksim.Errno.ENOMEM ->
        (* the schedule can legitimately kill the boot-time image load *)
        true
      | Error _ -> false
      | Ok (t, outcome) ->
        let honest =
          List.for_all
            (fun (e : Ksim.Trace.event) ->
              match e.Ksim.Trace.injected.Ksim.Trace.reply with
              | None -> true
              | Some injected -> (
                match e.Ksim.Trace.outcome with
                | Some (Ksim.Trace.Err err) -> err = injected
                | Some Ksim.Trace.Ok_result | None -> false))
            (Ksim.Trace.events (Option.get (Ksim.Kernel.trace t)))
        in
        honest
        &&
        (match outcome with
        | Ksim.Kernel.All_exited ->
          (* the only frames allowed to survive are the pinned pages of
             still-registered templates; commit charges all return *)
          let tpl_pages =
            List.fold_left
              (fun acc tpl -> acc + tpl.Ksim.Template.resident)
              0 (Ksim.Kernel.templates t)
          in
          Vmem.Frame.used (Ksim.Kernel.frames t) = tpl_pages
          && Vmem.Frame.pinned (Ksim.Kernel.frames t) = tpl_pages
          && Vmem.Frame.committed (Ksim.Kernel.frames t) = 0
        | Ksim.Kernel.Stalled _ | Ksim.Kernel.Tick_limit ->
          (* injected failures may leave a program blocked; the property
             is that the kernel survives, checked by getting here *)
          true))

let tc n f = Alcotest.test_case n `Quick f

(* Fixed seed: the @fault-smoke alias must be deterministic. *)
let qtest t = QCheck_alcotest.to_alcotest ~rand:(Random.State.make [| 42 |]) t

let () =
  Alcotest.run "fault"
    [
      ( "fault-unit",
        [
          tc "validate" test_validate;
          tc "nth triggers" test_nth_triggers;
          tc "determinism" test_determinism;
        ] );
      ( "errno",
        [
          tc "round-trip" test_errno_roundtrip;
          tc "domains" test_errno_domains;
          tc "traced errnos in domain" test_traced_errnos_in_domain;
          tc "drifted errno domains" test_drifted_errno_domains;
        ] );
      ( "rollback",
        [
          tc "failed fork, strict commit" test_failed_fork_strict_commit;
          tc "injected eager-fork rollback" test_injected_fork_eager_rollback;
          tc "pb_start retry after injection" test_pb_start_retry_after_injected_failure;
          tc "injected pager fetch, first-touch rollback"
            test_injected_pager_fetch_rollback;
          tc "injected syscall + retry" test_injected_syscall_and_retry;
          tc "injected zygote spawn" test_injected_template_spawn;
          tc "retry policy" test_retry_policy;
          tc "retry zero attempts" test_retry_zero_attempts;
          tc "retry backoff cap exact" test_retry_backoff_cap_exact;
          tc "builder retry in sim time" test_builder_retry_sim_time;
        ] );
      ("schedules", [ qtest prop_fault_schedules ]);
    ]
