(* Edge-case tests for the ksim socket/poll syscall family and a
   determinism property for the E17 serving experiment: the simulated
   side of the report must be bit-identical whatever --jobs is. *)

let check_int = Alcotest.(check int)
let check_bool = Alcotest.(check bool)

let errno = Alcotest.testable Ksim.Errno.pp Ksim.Errno.equal

let ok what = function
  | Ok v -> v
  | Error e ->
    Alcotest.failf "%s: unexpected %s" what (Ksim.Errno.to_string e)

let boot body =
  let init = Ksim.Program.make ~name:"/sbin/init" (fun ~argv:_ () -> body ()) in
  match Ksim.Kernel.boot ~programs:[ init ] "/sbin/init" with
  | Error _ -> Alcotest.fail "boot failed"
  | Ok (t, _outcome) -> t

(* ------------------------------------------------------------------ *)
(* poll on broken pipes *)

(* Read side: once the last writer is gone and the buffer is drained,
   poll must report POLLHUP (and POLLIN, since a read would not block —
   it returns "" immediately). *)
let test_poll_hup_on_read_side () =
  let hup = ref false and pin = ref false in
  ignore
    (boot (fun () ->
         let r, w = ok "pipe" (Ksim.Api.pipe ()) in
         ignore (ok "close w" (Ksim.Api.close w));
         match ok "poll" (Ksim.Api.poll [ Ksim.Types.pollin r ]) with
         | [ ev ] ->
           hup := ev.Ksim.Types.pr_hup;
           pin := ev.Ksim.Types.pr_in
         | evs -> Alcotest.failf "poll returned %d events" (List.length evs)));
  check_bool "pr_hup" true !hup;
  check_bool "pr_in" true !pin

(* Write side: no reader left means writes would raise SIGPIPE, and
   poll must say so with POLLERR even though only POLLOUT was asked
   for — and must not claim the fd is writable. *)
let test_poll_err_on_write_side () =
  let err = ref false and pout = ref true in
  ignore
    (boot (fun () ->
         let r, w = ok "pipe" (Ksim.Api.pipe ()) in
         ignore (ok "close r" (Ksim.Api.close r));
         match ok "poll" (Ksim.Api.poll [ Ksim.Types.pollout w ]) with
         | [ ev ] ->
           err := ev.Ksim.Types.pr_err;
           pout := ev.Ksim.Types.pr_out
         | evs -> Alcotest.failf "poll returned %d events" (List.length evs)));
  check_bool "pr_err" true !err;
  check_bool "pr_out" false !pout

(* timeout:0 is a pure probe: nothing ready must come back Ok [] on the
   same tick, never block. *)
let test_poll_timeout_zero_probe () =
  let n_ready = ref (-1) in
  ignore
    (boot (fun () ->
         let r, _w = ok "pipe" (Ksim.Api.pipe ()) in
         let evs =
           ok "poll" (Ksim.Api.poll ~timeout:0 [ Ksim.Types.pollin r ])
         in
         n_ready := List.length evs));
  check_int "no events" 0 !n_ready

(* A positive timeout with no ready fd expires and returns Ok []. *)
let test_poll_timeout_expires () =
  let n_ready = ref (-1) in
  ignore
    (boot (fun () ->
         let r, _w = ok "pipe" (Ksim.Api.pipe ()) in
         let evs =
           ok "poll" (Ksim.Api.poll ~timeout:3 [ Ksim.Types.pollin r ])
         in
         n_ready := List.length evs));
  check_int "no events" 0 !n_ready

(* A timed-out poll ends exactly [timeout] ticks after it began: the
   deadline its parked entry holds is where an all-parked machine jumps
   the clock. *)
let test_poll_timeout_on_deadline () =
  let timeout = 7 in
  let init =
    Ksim.Program.make ~name:"/sbin/init" (fun ~argv:_ () ->
        let r, _w = ok "pipe" (Ksim.Api.pipe ()) in
        ignore (ok "poll" (Ksim.Api.poll ~timeout [ Ksim.Types.pollin r ])))
  in
  let config =
    { Ksim.Kernel.default_config with Ksim.Kernel.trace_capacity = Some 256 }
  in
  match Ksim.Kernel.boot ~config ~programs:[ init ] "/sbin/init" with
  | Error _ -> Alcotest.fail "boot failed"
  | Ok (t, _outcome) -> (
    let polls phase =
      List.filter
        (fun (e : Ksim.Trace.event) ->
          e.Ksim.Trace.what = "poll" && e.Ksim.Trace.phase = phase)
        (Ksim.Trace.events (Option.get (Ksim.Kernel.trace t)))
    in
    match (polls Ksim.Trace.Begin, polls Ksim.Trace.End) with
    | [ b ], [ e ] ->
      check_int "ticks from begin to end" timeout
        (e.Ksim.Trace.tick - b.Ksim.Trace.tick)
    | _ -> Alcotest.fail "expected one poll span")

(* A poller that dies while parked takes its deadline with it: once the
   only other thread blocks for good, the machine reports the stall at
   once instead of first jumping the clock to the dead poll's
   timeout. *)
let test_dead_poller_leaves_no_deadline () =
  let timeout = 1_000_000 in
  let init =
    Ksim.Program.make ~name:"/sbin/init" (fun ~argv:_ () ->
        let pr, _pw = ok "pipe" (Ksim.Api.pipe ()) in
        let r, _w = ok "pipe" (Ksim.Api.pipe ()) in
        let child =
          ok "fork"
            (Ksim.Api.fork ~child:(fun () ->
                 ignore (Ksim.Api.poll ~timeout [ Ksim.Types.pollin pr ])))
        in
        (* let the child reach its poll and park *)
        Ksim.Api.yield ();
        ok "kill" (Ksim.Api.kill child Ksim.Usignal.SIGKILL);
        (* init holds the write end itself: this read never returns *)
        ignore (Ksim.Api.read r 1))
  in
  match Ksim.Kernel.boot ~programs:[ init ] "/sbin/init" with
  | Error _ -> Alcotest.fail "boot failed"
  | Ok (t, Ksim.Kernel.Stalled [ { Ksim.Kernel.pid = 1; _ } ]) ->
    check_bool "clock below the dead poll's deadline" true
      (Ksim.Kernel.clock t < timeout)
  | Ok (_, outcome) ->
    Alcotest.failf "expected init alone stalled, got %a"
      Ksim.Kernel.pp_outcome outcome

(* ------------------------------------------------------------------ *)
(* accept-queue overflow *)

(* A backlog-1 listener with no accepting thread takes exactly one
   handshake; the next connect must be refused (never queued, never
   blocked) and the refusal must show up in kstat. *)
let test_accept_queue_overflow () =
  let second = ref (Ok ()) in
  let t =
    boot (fun () ->
        let lfd = ok "socket" (Ksim.Api.socket ()) in
        ok "bind" (Ksim.Api.bind lfd ~port:80);
        ok "listen" (Ksim.Api.listen lfd ~backlog:1);
        let c1 = ok "socket" (Ksim.Api.socket ()) in
        ok "connect 1" (Ksim.Api.connect c1 ~port:80);
        let c2 = ok "socket" (Ksim.Api.socket ()) in
        second := Ksim.Api.connect c2 ~port:80)
  in
  (match !second with
  | Error e -> Alcotest.check errno "overflow" Ksim.Errno.ECONNREFUSED e
  | Ok () -> Alcotest.fail "second connect should be refused");
  let g = Ksim.Kstat.global (Ksim.Kernel.kstat t) in
  check_int "sock_refused" 1 g.Ksim.Kstat.sock_refused;
  check_int "accept_queue_peak" 1 g.Ksim.Kstat.accept_queue_peak

(* Connecting to a port nobody listens on is refused outright. *)
let test_connect_no_listener () =
  let res = ref (Ok ()) in
  ignore
    (boot (fun () ->
         let c = ok "socket" (Ksim.Api.socket ()) in
         res := Ksim.Api.connect c ~port:4242));
  match !res with
  | Error e -> Alcotest.check errno "refused" Ksim.Errno.ECONNREFUSED e
  | Ok () -> Alcotest.fail "connect should be refused"

(* bind's three errnos. A socket binds once, so a second bind fails
   EINVAL before the port table is consulted, whatever the port; only
   another live socket's port is EADDRINUSE, and its last close frees
   the port. *)
let test_bind_errnos () =
  let got = ref [] in
  ignore
    (boot (fun () ->
         let note what r = got := (what, r) :: !got in
         let s1 = ok "socket 1" (Ksim.Api.socket ()) in
         let s2 = ok "socket 2" (Ksim.Api.socket ()) in
         note "unused fd" (Ksim.Api.bind 99 ~port:80);
         ok "bind 80" (Ksim.Api.bind s1 ~port:80);
         note "same port again" (Ksim.Api.bind s1 ~port:80);
         note "another port" (Ksim.Api.bind s1 ~port:81);
         note "port held by another" (Ksim.Api.bind s2 ~port:80);
         ok "listen" (Ksim.Api.listen s1 ~backlog:1);
         note "listening" (Ksim.Api.bind s1 ~port:80);
         ignore (ok "close" (Ksim.Api.close s1));
         note "port freed" (Ksim.Api.bind s2 ~port:80)));
  let want =
    Ksim.Errno.
      [
        ("unused fd", Error EBADF);
        ("same port again", Error EINVAL);
        ("another port", Error EINVAL);
        ("port held by another", Error EADDRINUSE);
        ("listening", Error EINVAL);
        ("port freed", Ok ());
      ]
  in
  Alcotest.(check (list (pair string (result unit errno)))) "bind" want (List.rev !got)

(* ------------------------------------------------------------------ *)
(* accept/connect round-trip across fork *)

let test_accept_roundtrip () =
  let got = ref "" in
  ignore
    (boot (fun () ->
         let lfd = ok "socket" (Ksim.Api.socket ()) in
         ok "bind" (Ksim.Api.bind lfd ~port:80);
         ok "listen" (Ksim.Api.listen lfd ~backlog:4);
         ignore
           (ok "fork"
              (Ksim.Api.fork ~child:(fun () ->
                   let conn = ok "accept" (Ksim.Api.accept lfd) in
                   let req = ok "read" (Ksim.Api.read conn 16) in
                   ok "reply" (Ksim.Api.write_all conn ("re:" ^ req));
                   ignore (Ksim.Api.close conn);
                   Ksim.Api.exit 0)));
         let c = ok "socket" (Ksim.Api.socket ()) in
         ok "connect" (Ksim.Api.connect c ~port:80);
         ok "send" (Ksim.Api.write_all c "ping");
         ignore (ok "poll" (Ksim.Api.poll [ Ksim.Types.pollin c ]));
         got := ok "recv" (Ksim.Api.read c 16);
         ignore (Ksim.Api.close c);
         ignore (Ksim.Api.wait_all ())));
  Alcotest.(check string) "reply" "re:ping" !got

(* ------------------------------------------------------------------ *)
(* E17 determinism across --jobs *)

(* The whole simulated half of E17 must not depend on how many worker
   domains Workload.Par spreads the points over. Polymorphic equality
   on Exp_serve.point covers every field the report serialises
   (latency arrays, kstat counters, per-worker service counts). *)
let prop_e17_jobs_invariant =
  QCheck.Test.make ~count:4 ~name:"E17 points: jobs=1 and jobs=4 agree"
    QCheck.(pair (pair small_nat bool) (int_range 1 3))
    (fun ((seed, bursty), workers) ->
      let load =
        {
          Forkroad.Exp_serve.load_name = "qc";
          lam = 1.5;
          rounds = 5;
          gap = 4;
          bursty;
          seed = 1 + seed;
        }
      in
      let specs =
        [
          {
            Forkroad.Exp_serve.ps_model = Forkroad.Exp_serve.Dispatch;
            ps_workers = workers;
            ps_load = load;
            ps_crash = false;
          };
          {
            Forkroad.Exp_serve.ps_model = Forkroad.Exp_serve.Reuseport;
            ps_workers = workers;
            ps_load = load;
            ps_crash = false;
          };
          {
            Forkroad.Exp_serve.ps_model = Forkroad.Exp_serve.Inetd;
            ps_workers = 0;
            ps_load = load;
            ps_crash = false;
          };
        ]
      in
      let run jobs =
        Workload.Par.map ~jobs Forkroad.Exp_serve.run_point specs
      in
      run 1 = run 4)

(* The seeded crash schedule is part of the deterministic contract:
   same spec, same worker death, at any jobs. *)
let test_crash_point_deterministic () =
  let spec =
    {
      Forkroad.Exp_serve.ps_model = Forkroad.Exp_serve.Reuseport;
      ps_workers = 2;
      ps_load =
        {
          Forkroad.Exp_serve.load_name = "crash";
          lam = 2.0;
          rounds = 8;
          gap = 4;
          bursty = false;
          seed = 7;
        };
      ps_crash = true;
    }
  in
  let a = Workload.Par.map ~jobs:1 Forkroad.Exp_serve.run_point [ spec ] in
  let b = Workload.Par.map ~jobs:4 Forkroad.Exp_serve.run_point [ spec ] in
  check_bool "identical" true (a = b);
  match a with
  | [ p ] ->
    check_int "one worker crashed" 1 p.Forkroad.Exp_serve.crashed;
    check_bool "still serves" true
      (p.Forkroad.Exp_serve.completed > 0)
  | _ -> Alcotest.fail "expected one point"

(* ------------------------------------------------------------------ *)

let tc = Alcotest.test_case
let qc = QCheck_alcotest.to_alcotest

let () =
  Alcotest.run "serve"
    [
      ( "poll",
        [
          tc "hup on read side" `Quick test_poll_hup_on_read_side;
          tc "err on write side" `Quick test_poll_err_on_write_side;
          tc "timeout=0 probe" `Quick test_poll_timeout_zero_probe;
          tc "timeout expires" `Quick test_poll_timeout_expires;
          tc "timeout ends on its deadline" `Quick
            test_poll_timeout_on_deadline;
          tc "dead poller leaves no deadline" `Quick
            test_dead_poller_leaves_no_deadline;
        ] );
      ( "socket",
        [
          tc "accept-queue overflow" `Quick test_accept_queue_overflow;
          tc "no listener" `Quick test_connect_no_listener;
          tc "bind errnos" `Quick test_bind_errnos;
          tc "accept round-trip" `Quick test_accept_roundtrip;
        ] );
      ( "e17",
        [
          qc prop_e17_jobs_invariant;
          tc "crash point deterministic" `Quick
            test_crash_point_deterministic;
        ] );
    ]
