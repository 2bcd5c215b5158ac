(* Wake order of parked syscalls.

   A random blocking program is drawn from a seed and run on a traced
   kernel; its digest covers everything the order of wakeups can move:
   the trace JSONL (every syscall's tick, result and CPU), the non-zero
   Kstat counters, the console, a per-op result log, the final clock and
   statuses, and the outcome with its stall list. [Wake_refs.table]
   holds the digests of seeds 1-1000 as the kernel produced them when it
   re-ran every parked thread's check after every round, so they pin
   that order of wakeups. Seeds 1001-1100 add a SIGPIPE trap ({!trap})
   that reaches the exclusive kick's search for the oldest waiter a
   running pass has still to reach: without that search every one of
   them moves. Tier-1 checks seeds 1-100 and the trap seeds, and
   [QCHECK_LONG=1] all of them. The programs are drawn from
   [Prng.Splitmix], not [Random.State], so the goldens hold on every
   compiler and QCheck version.

   The unit tests below pin the corners of the wait protocol: which pass
   a waiter parked before or after its waker wakes in, a dead exclusive
   waiter passing its wake on, a listener closed under a parked accept,
   a poller killed mid-pass, and a sibling closing the fd a parked read
   or write uses. *)

let ok what = function
  | Ok v -> v
  | Error e -> Alcotest.failf "%s: %a" what Ksim.Errno.pp e

(* ------------------------------------------------------------------ *)
(* Random blocking programs *)

type target = End_r of int | End_w of int | Listener

type op =
  | Read of int * int  (** pipe, bytes wanted *)
  | Write of int * int  (** pipe, bytes *)
  | Flood of int  (** fill the pipe, then write 5 more bytes *)
  | Poll of target list * int  (** interests, timeout (-1: none) *)
  | Critical of int * op list  (** lock, yield, body, unlock *)
  | Lock of int  (** and never unlock *)
  | Contend of int  (** a new thread and this one each lock, yield, unlock *)
  | Accept  (** accept, read a request, answer it, close *)
  | Connect of int  (** connect, send n bytes, read the answer, close *)
  | Yield
  | Alarm of int
  | Ignore_sigpipe
  | Exit
  | Thread of op list
  | Fork of int list * op list  (** pipe ends to close first, body *)
  | Vfork of op list
  | Wait

(* A process that holds the only write end of pipe Q dies by SIGPIPE
   inside a wake pass, while readers of Q are parked on both sides of
   its parked writer: [before] readers are forked before it and [after]
   after it, [gap] yields apart. Its death kicks Q's exclusive queue
   mid-pass, so the oldest reader waits for the next pass and the oldest
   one the pass has still to reach wakes in this one. *)
type trap = { before : int; after : int; gap : int }

type script = {
  smp : bool;  (** four CPUs, or the one-CPU machine *)
  random : bool;  (** [Random] scheduling, or [Fifo] *)
  kseed : int;
  pipes : int;
  mutexes : int;
  backlog : int;
  children : (int list * op list) list;
      (** init's children: ends each closes, then its body *)
  kills : (int * int * Ksim.Usignal.t) list;
      (** init's kills: yields first, child index, signal *)
  trap : trap option;  (** run by init after its children start *)
}

(* A pipe end [e] is pipe [e / 2]'s read (even) or write (odd) end. *)
let gen_script rng =
  let int bound = Prng.Splitmix.int rng ~bound in
  let pick a = a.(int (Array.length a)) in
  let pipes = 1 + int 3 and mutexes = 1 + int 2 in
  let pipe () = int pipes in
  let target () =
    match int 5 with
    | 0 | 1 -> End_r (pipe ())
    | 2 | 3 -> End_w (pipe ())
    | _ -> Listener
  in
  let rec ops depth = List.init (1 + int 7) (fun _ -> op depth)
  and op depth =
    match int (if depth > 1 then 84 else 100) with
    | n when n < 24 -> Read (pipe (), pick [| 1; 1; 2; 5 |])
    | n when n < 34 -> Write (pipe (), pick [| 1; 2; 3; 40_000; 65_536 |])
    | n when n < 38 -> Flood (pipe ())
    | n when n < 46 ->
      Poll (List.init (int 3) (fun _ -> target ()), pick [| -1; 0; 3; 17 |])
    | n when n < 53 -> if int 8 = 0 then Lock (int mutexes) else Critical (int mutexes, ops 2)
    | n when n < 57 -> Contend (int mutexes)
    | n when n < 66 -> if int 2 = 0 then Accept else Connect (1 + int 4)
    | n when n < 72 -> pick [| Yield; Yield; Alarm (5 + int 40); Ignore_sigpipe |]
    | n when n < 74 -> Exit
    | n when n < 79 -> Wait
    | n when n < 84 -> Vfork (ops 2)
    | n when n < 95 -> Thread (ops (depth + 1))
    | _ -> Fork (closes (), ops (depth + 1))
  (* mostly one end of each pipe: a process that holds both ends of a
     pipe it reads never sees EOF *)
  and closes () =
    List.concat
      (List.init pipes (fun p ->
           match int 10 with
           | 0 | 1 | 2 | 3 -> [ 2 * p ]
           | 4 | 5 | 6 | 7 -> [ (2 * p) + 1 ]
           | 8 -> [ 2 * p; (2 * p) + 1 ]
           | _ -> []))
  in
  let children = List.init (1 + int 5) (fun _ -> (closes (), ops 0)) in
  let sigs = [| Ksim.Usignal.SIGKILL; Ksim.Usignal.SIGTERM; Ksim.Usignal.SIGPIPE |] in
  let kills =
    List.init (int 3) (fun _ -> (int 30, int (List.length children), pick sigs))
  in
  {
    smp = int 2 = 0;
    random = int 2 = 0;
    kseed = int 1000;
    pipes;
    mutexes;
    backlog = 1 + int 3;
    children;
    kills;
    trap = None;
  }

(* Seeds 1-1000 draw plain scripts; later seeds add the SIGPIPE trap,
   drawn after everything else so the rest of the script is the plain
   one's. *)
let plain_seeds = 1000

let script_of_seed seed =
  let rng = Prng.Splitmix.create ~seed in
  let s = gen_script rng in
  if seed <= plain_seeds then s
  else
    let int bound = Prng.Splitmix.int rng ~bound in
    let before = 1 + int 3 in
    let after = 1 + int 3 in
    { s with trap = Some { before; after; gap = 4 * (1 + int 3) } }

(* The QCheck face of the generator, for properties over fresh seeds. *)
let arb_seed = QCheck.make ~print:string_of_int QCheck.Gen.nat

let port = 7

(* Run [s] on a fresh traced kernel. Each process tracks which pipe ends
   it still holds, so an op on a closed end is skipped instead of
   hitting a reused fd number; fds are only closed before a process
   starts its threads, so no thread closes an fd a sibling waits on. *)
let run_script s =
  let log = Buffer.create 1024 in
  let note tid fmt = Printf.ksprintf (fun m -> Printf.bprintf log "%d %s\n" tid m) fmt in
  let res tid what = function
    | Ok _ -> note tid "%s ok" what
    | Error e -> note tid "%s %s" what (Ksim.Errno.to_string e)
  in
  let fds = Array.make (2 * s.pipes) 0 in
  let lfd = ref 0 in
  let byte = ref 0 in
  let payload n =
    String.init n (fun _ ->
        incr byte;
        Char.chr (Char.code 'a' + (!byte mod 26)))
  in
  let rec run_ops held tid ops = List.iter (run_op held tid) ops
  and run_op held tid = function
    | Read (p, n) ->
      if held.(2 * p) then (
        match Ksim.Api.read fds.(2 * p) n with
        | Ok d -> note tid "read %d %S" p d
        | Error _ as r -> res tid "read" r)
    | Write (p, n) ->
      if held.((2 * p) + 1) then
        res tid (Printf.sprintf "write %d" p) (Ksim.Api.write fds.((2 * p) + 1) (payload n))
    | Poll (ts, timeout) -> (
      let interest = function
        | End_r p when held.(2 * p) -> Some (Ksim.Types.pollin fds.(2 * p))
        | End_w p when held.((2 * p) + 1) -> Some (Ksim.Types.pollout fds.((2 * p) + 1))
        | Listener -> Some (Ksim.Types.pollin !lfd)
        | End_r _ | End_w _ -> None
      in
      match Ksim.Api.poll ~timeout (List.filter_map interest ts) with
      | Ok evs ->
        note tid "poll %s"
          (String.concat ","
             (List.map
                (fun (e : Ksim.Types.poll_revent) ->
                  Printf.sprintf "%d:%b%b%b%b" e.Ksim.Types.pr_fd e.pr_in e.pr_out
                    e.pr_hup e.pr_err)
                evs))
      | Error _ as r -> res tid "poll" r)
    | Flood p ->
      run_op held tid (Write (p, 65_536));
      run_op held tid (Write (p, 5))
    | Contend m ->
      run_op held tid (Thread [ Critical (m, []) ]);
      run_op held tid (Critical (m, []))
    | Critical (m, body) ->
      res tid "lock" (Ksim.Api.mutex_lock m);
      Ksim.Api.yield ();
      run_ops held tid body;
      res tid "unlock" (Ksim.Api.mutex_unlock m)
    | Lock m -> res tid "lock" (Ksim.Api.mutex_lock m)
    | Accept -> (
      match Ksim.Api.accept !lfd with
      | Error _ as r -> res tid "accept" r
      | Ok c ->
        (match Ksim.Api.read c 8 with
        | Ok d -> note tid "served %S" d
        | Error _ as r -> res tid "serve" r);
        res tid "answer" (Ksim.Api.write c "ok");
        ignore (Ksim.Api.close c))
    | Connect n -> (
      match Ksim.Api.socket () with
      | Error _ as r -> res tid "socket" r
      | Ok c ->
        (match Ksim.Api.connect c ~port with
        | Error _ as r -> res tid "connect" r
        | Ok () -> (
          res tid "send" (Ksim.Api.write c (payload n));
          match Ksim.Api.read c 8 with
          | Ok d -> note tid "answered %S" d
          | Error _ as r -> res tid "answered" r));
        ignore (Ksim.Api.close c))
    | Yield -> Ksim.Api.yield ()
    | Alarm k -> note tid "alarm %d" (Ksim.Api.alarm k)
    | Ignore_sigpipe ->
      res tid "sigaction"
        (Ksim.Api.sigaction Ksim.Usignal.SIGPIPE Ksim.Usignal.Ignored)
    | Exit -> Ksim.Api.exit 9
    | Thread body ->
      res tid "thread"
        (Ksim.Api.thread_create (fun () -> run_ops held (Ksim.Api.gettid ()) body))
    | Fork (closes, body) ->
      res tid "fork" (Ksim.Api.fork ~child:(fun () -> child held closes body))
    | Vfork body ->
      res tid "vfork"
        (Ksim.Api.vfork ~child:(fun () ->
             run_ops (Array.copy held) (Ksim.Api.gettid ()) body;
             Ksim.Api.exit 0))
    | Wait -> (
      match Ksim.Api.waitpid Ksim.Types.Any_child with
      | Ok (pid, st) -> note tid "reaped %d %s" pid (Format.asprintf "%a" Ksim.Types.pp_status st)
      | Error _ as r -> res tid "wait" r)
  and child held closes body =
    let held = Array.copy held in
    List.iter
      (fun e ->
        if held.(e) then begin
          ignore (Ksim.Api.close fds.(e));
          held.(e) <- false
        end)
      closes;
    run_ops held (Ksim.Api.gettid ()) body;
    Ksim.Api.exit 0
  in
  let trap { before; after; gap } =
    let rp, wp = ok "pipe" (Ksim.Api.pipe ()) in
    let rq, wq = ok "pipe" (Ksim.Api.pipe ()) in
    let start child =
      res 1 "trap fork" (Ksim.Api.fork ~child);
      for _ = 1 to gap do
        Ksim.Api.yield ()
      done
    in
    let reader () =
      List.iter (fun fd -> ignore (Ksim.Api.close fd)) [ rp; wp; wq ];
      (match Ksim.Api.read rq 1 with
      | Ok d -> note (Ksim.Api.gettid ()) "trap read %S" d
      | Error _ as r -> res (Ksim.Api.gettid ()) "trap read" r);
      Ksim.Api.exit 0
    in
    for _ = 1 to before do
      start reader
    done;
    start (fun () ->
        ignore (Ksim.Api.close rp);
        ignore (Ksim.Api.close rq);
        let tid = Ksim.Api.gettid () in
        res tid "trap fill" (Ksim.Api.write wp (String.make 65_536 'f'));
        res tid "trap write" (Ksim.Api.write wp "w");
        Ksim.Api.exit 0);
    for _ = 1 to after do
      start reader
    done;
    List.iter (fun fd -> ignore (Ksim.Api.close fd)) [ wp; rq; wq; rp ]
  in
  let init () =
    for p = 0 to s.pipes - 1 do
      let r, w = ok "pipe" (Ksim.Api.pipe ()) in
      fds.(2 * p) <- r;
      fds.((2 * p) + 1) <- w
    done;
    for _ = 1 to s.mutexes do
      ignore (Ksim.Api.mutex_create ())
    done;
    lfd := ok "socket" (Ksim.Api.socket ());
    ok "bind" (Ksim.Api.bind !lfd ~port);
    ok "listen" (Ksim.Api.listen !lfd ~backlog:s.backlog);
    let held = Array.make (2 * s.pipes) true in
    let pids =
      Array.of_list
        (List.map
           (fun (closes, body) ->
             Ksim.Api.fork ~child:(fun () -> child held closes body))
           s.children)
    in
    Array.iter (fun fd -> ignore (Ksim.Api.close fd)) fds;
    ignore (Ksim.Api.close !lfd);
    Option.iter trap s.trap;
    List.iter
      (fun (yields, i, sig_) ->
        for _ = 1 to yields do
          Ksim.Api.yield ()
        done;
        match pids.(i) with
        | Ok pid -> res 1 "kill" (Ksim.Api.kill pid sig_)
        | Error _ -> ())
      s.kills;
    let rec reap () =
      match Ksim.Api.waitpid Ksim.Types.Any_child with
      | Ok (pid, st) ->
        note 1 "init reaped %d %s" pid (Format.asprintf "%a" Ksim.Types.pp_status st);
        reap ()
      | Error _ -> ()
    in
    reap ()
  in
  let config =
    {
      Ksim.Kernel.default_config with
      Ksim.Kernel.aslr = false;
      seed = s.kseed;
      sched = (if s.random then `Random else `Fifo);
      smp = s.smp;
      cpus = (if s.smp then 4 else 1);
      trace_capacity = Some 65_536;
      max_fds = 64;
    }
  in
  let t = Ksim.Kernel.create ~config () in
  Ksim.Kernel.register t (Ksim.Program.make ~name:"/sbin/init" (fun ~argv:_ -> init));
  ignore (ok "spawn init" (Ksim.Kernel.spawn_init t "/sbin/init"));
  let outcome = Ksim.Kernel.run ~max_ticks:200_000 t in
  (t, outcome, Buffer.contents log)

let digest s =
  let t, outcome, log = run_script s in
  let b = Buffer.create 65_536 in
  Buffer.add_string b (Ksim.Trace.to_jsonl (Option.get (Ksim.Kernel.trace t)));
  List.iter
    (fun (k, v) -> if v <> 0 then Printf.bprintf b "kstat %s %d\n" k v)
    (Ksim.Kstat.snapshot (Ksim.Kstat.global (Ksim.Kernel.kstat t)));
  Printf.bprintf b "console %S\nlog %S\nclock %d\n" (Ksim.Kernel.console t) log
    (Ksim.Kernel.clock t);
  List.iter
    (fun (p : Ksim.Proc.t) ->
      match Ksim.Kernel.status_of t p.Ksim.Proc.pid with
      | Some st -> Format.kasprintf (Buffer.add_string b) "pid %d %a\n" p.Ksim.Proc.pid Ksim.Types.pp_status st
      | None -> Printf.bprintf b "pid %d alive\n" p.Ksim.Proc.pid)
    (Ksim.Kernel.procs t);
  Format.kasprintf (Buffer.add_string b) "outcome %a\n" Ksim.Kernel.pp_outcome outcome;
  Digest.to_hex (Digest.string (Buffer.contents b))

let long =
  match Sys.getenv_opt "QCHECK_LONG" with Some ("1" | "true") -> true | _ -> false

let test_goldens () =
  let bad =
    List.filter_map
      (fun (seed, want) ->
        if seed > 100 && seed <= plain_seeds && not long then None
        else
          let got = digest (script_of_seed seed) in
          if got = want then None else Some (Printf.sprintf "seed %d: %s" seed got))
      Wake_refs.table
  in
  if bad <> [] then Alcotest.failf "wake order moved:\n%s" (String.concat "\n" bad)

(* Fresh seeds, beyond the goldens: a program runs without the kernel
   raising, and its run depends on nothing but its script. *)
let prop_deterministic =
  QCheck.Test.make ~count:20 ~long_factor:10
    ~name:"random blocking programs replay identically" arb_seed (fun seed ->
      let s = script_of_seed seed in
      digest s = digest s)

(* ------------------------------------------------------------------ *)
(* Traps *)

(* Boot a traced one-CPU machine whose init runs [init t]. *)
let boot_with init =
  let config =
    { Ksim.Kernel.default_config with Ksim.Kernel.trace_capacity = Some 4096 }
  in
  let t = Ksim.Kernel.create ~config () in
  Ksim.Kernel.register t
    (Ksim.Program.make ~name:"/sbin/init" (fun ~argv:_ () -> init t));
  ignore (ok "spawn init" (Ksim.Kernel.spawn_init t "/sbin/init"));
  (t, Ksim.Kernel.run t)

let boot init = boot_with (fun _ -> init ())

(* The End events of syscall [what] in the trace, as (pid, tick, result). *)
let ends t what =
  List.filter_map
    (fun (e : Ksim.Trace.event) ->
      if e.Ksim.Trace.what = what && e.Ksim.Trace.phase = Ksim.Trace.End then
        Some (e.Ksim.Trace.pid, e.Ksim.Trace.tick)
      else None)
    (Ksim.Trace.events (Option.get (Ksim.Kernel.trace t)))

let yields n =
  for _ = 1 to n do
    Ksim.Api.yield ()
  done

let fill fd = ignore (ok "fill" (Ksim.Api.write fd (String.make 65_536 'f')))

(* Waker W is a writer parked on a full pipe P in process C, which holds
   the only write end of pipe Q. Readers X1 and X2 wait on Q, X1 parked
   before W and X2 after it. When init closes P's last read end, the
   next pass finds W's write broken: SIGPIPE kills C, whose exit leaves
   Q at EOF. X2 comes after W in that pass and gets its EOF at once; X1
   was already passed and gets it one pass (one tick) later. *)
let test_pass_order () =
  let x1 = ref 0 and x2 = ref 0 in
  let t, outcome =
    boot (fun () ->
        let rp, wp = ok "pipe" (Ksim.Api.pipe ()) in
        let rq, wq = ok "pipe" (Ksim.Api.pipe ()) in
        let reader () =
          List.iter (fun fd -> ignore (Ksim.Api.close fd)) [ rp; wp; wq ];
          ignore (Ksim.Api.read rq 1);
          Ksim.Api.exit 0
        in
        x1 := ok "fork x1" (Ksim.Api.fork ~child:reader);
        yields 8;
        ignore
          (ok "fork c"
             (Ksim.Api.fork ~child:(fun () ->
                  ignore (Ksim.Api.close rp);
                  ignore (Ksim.Api.close rq);
                  fill wp;
                  ignore (Ksim.Api.write wp "w");
                  Ksim.Api.exit 0)));
        yields 8;
        x2 := ok "fork x2" (Ksim.Api.fork ~child:reader);
        yields 8;
        List.iter (fun fd -> ignore (Ksim.Api.close fd)) [ wp; rq; wq; rp ];
        for _ = 1 to 3 do
          ignore (Ksim.Api.waitpid Ksim.Types.Any_child)
        done)
  in
  (match outcome with
  | Ksim.Kernel.All_exited -> ()
  | o -> Alcotest.failf "outcome %a" Ksim.Kernel.pp_outcome o);
  let close_tick =
    match List.rev (List.filter (fun (pid, _) -> pid = 1) (ends t "close")) with
    | (_, tick) :: _ -> tick
    | [] -> Alcotest.fail "no close"
  in
  let read_tick pid =
    match List.filter (fun (p, _) -> p = pid) (ends t "read") with
    | [ (_, tick) ] -> tick
    | _ -> Alcotest.failf "pid %d: expected one read" pid
  in
  Alcotest.(check int) "parked after the waker: same pass" close_tick (read_tick !x2);
  Alcotest.(check int) "parked before the waker: next pass" (close_tick + 1)
    (read_tick !x1)

(* Reader A (its process also holds Q's only write end, and a thread W
   parked in a write to a full pipe P) and reader B, in another process,
   wait on Q. Closing P's last read end breaks W's write: SIGPIPE kills
   A's process mid-pass, after W and before A's reader is visited, and
   its exit leaves Q at EOF. The wake goes to A's reader, which is dead,
   and must pass on to B in the same pass. *)
let test_dead_waiter_hands_off () =
  let b = ref 0 and b_got = ref None in
  let t, outcome =
    boot (fun () ->
        let rp, wp = ok "pipe" (Ksim.Api.pipe ()) in
        let rq, wq = ok "pipe" (Ksim.Api.pipe ()) in
        ignore
          (ok "fork a"
             (Ksim.Api.fork ~child:(fun () ->
                  ignore (Ksim.Api.close rp);
                  ignore
                    (Ksim.Api.thread_create (fun () ->
                         fill wp;
                         ignore (Ksim.Api.write wp "w")));
                  yields 4;
                  ignore (Ksim.Api.read rq 1);
                  Ksim.Api.exit 0)));
        yields 12;
        b :=
          ok "fork b"
            (Ksim.Api.fork ~child:(fun () ->
                 List.iter (fun fd -> ignore (Ksim.Api.close fd)) [ rp; wp; wq ];
                 b_got := Some (Ksim.Api.read rq 1);
                 Ksim.Api.exit 0));
        yields 8;
        List.iter (fun fd -> ignore (Ksim.Api.close fd)) [ wp; rq; wq; rp ];
        for _ = 1 to 2 do
          ignore (Ksim.Api.waitpid Ksim.Types.Any_child)
        done)
  in
  (match outcome with
  | Ksim.Kernel.All_exited -> ()
  | o -> Alcotest.failf "outcome %a" Ksim.Kernel.pp_outcome o);
  (match !b_got with
  | Some (Ok "") -> ()
  | _ -> Alcotest.fail "B should read EOF");
  let close_tick =
    match List.rev (List.filter (fun (pid, _) -> pid = 1) (ends t "close")) with
    | (_, tick) :: _ -> tick
    | [] -> Alcotest.fail "no close"
  in
  match List.filter (fun (p, _) -> p = !b) (ends t "read") with
  | [ (_, tick) ] -> Alcotest.(check int) "B wakes in the killing pass" close_tick tick
  | _ -> Alcotest.fail "expected one read by B"

(* A parked accept does not keep its listener open: when a sibling
   closes the last fd, the accept fails with EINVAL. *)
let test_accept_listener_closed () =
  let got = ref None in
  let _, outcome =
    boot (fun () ->
        let l = ok "socket" (Ksim.Api.socket ()) in
        ok "bind" (Ksim.Api.bind l ~port);
        ok "listen" (Ksim.Api.listen l ~backlog:2);
        ignore (Ksim.Api.thread_create (fun () -> got := Some (Ksim.Api.accept l)));
        yields 3;
        ignore (Ksim.Api.close l);
        yields 3)
  in
  (match outcome with
  | Ksim.Kernel.All_exited -> ()
  | o -> Alcotest.failf "outcome %a" Ksim.Kernel.pp_outcome o);
  match !got with
  | Some (Error Ksim.Errno.EINVAL) -> ()
  | _ -> Alcotest.fail "accept should fail EINVAL"

(* Poller P (timeout 1000) and writer W share process A; W waits on a
   full pipe whose only reader is in process B, and B's writer X waits
   on a full pipe whose only reader is B's thread C. C closes it: the
   next pass breaks X's write and SIGPIPE kills B, which drops W's
   reader. W is behind X, so its write breaks one pass later, in a pass
   after a round in which nothing ran, and SIGPIPE kills A with P
   already passed. Init waits forever, so the machine is idle with the
   dead P still parked: its deadline moves the clock before the stall
   is reported. *)
let test_poller_killed_mid_pass () =
  let timeout = 1000 in
  let deadline = ref 0 in
  let t, outcome =
    boot_with (fun t ->
        let rs, ws = ok "pipe" (Ksim.Api.pipe ()) in
        let rp, wp = ok "pipe" (Ksim.Api.pipe ()) in
        let rz, _wz = ok "pipe" (Ksim.Api.pipe ()) in
        ignore
          (ok "fork a"
             (Ksim.Api.fork ~child:(fun () ->
                  List.iter (fun fd -> ignore (Ksim.Api.close fd)) [ rs; ws; rp ];
                  ignore
                    (Ksim.Api.thread_create (fun () ->
                         deadline := Ksim.Kernel.clock t + timeout;
                         ignore (Ksim.Api.poll ~timeout [])));
                  yields 4;
                  fill wp;
                  ignore (Ksim.Api.write wp "w"))));
        yields 16;
        ignore
          (ok "fork b"
             (Ksim.Api.fork ~child:(fun () ->
                  ignore (Ksim.Api.close wp);
                  ignore
                    (Ksim.Api.thread_create (fun () ->
                         yields 8;
                         ignore (Ksim.Api.close rs)));
                  fill ws;
                  ignore (Ksim.Api.write ws "x"))));
        List.iter (fun fd -> ignore (Ksim.Api.close fd)) [ rs; ws; rp; wp ];
        ignore (Ksim.Api.read rz 1))
  in
  (match outcome with
  | Ksim.Kernel.Stalled [ { Ksim.Kernel.pid = 1; _ } ] -> ()
  | o -> Alcotest.failf "expected init alone stalled, got %a" Ksim.Kernel.pp_outcome o);
  Alcotest.(check int) "clock at the dead poller's deadline" !deadline
    (Ksim.Kernel.clock t)

(* A sibling thread closes the fd a parked read uses: the read keeps its
   own reference, so the pipe still has a reader and gets the byte
   written after the close. *)
let test_sibling_closes_read_fd () =
  let got = ref None in
  let _, outcome =
    boot (fun () ->
        let r, w = ok "pipe" (Ksim.Api.pipe ()) in
        ignore (Ksim.Api.thread_create (fun () -> got := Some (Ksim.Api.read r 1)));
        yields 2;
        ignore (ok "close" (Ksim.Api.close r));
        ignore (ok "write" (Ksim.Api.write w "x"));
        yields 2)
  in
  (match outcome with
  | Ksim.Kernel.All_exited -> ()
  | o -> Alcotest.failf "outcome %a" Ksim.Kernel.pp_outcome o);
  match !got with
  | Some (Ok "x") -> ()
  | _ -> Alcotest.fail "the parked read should get the byte"

(* The same for a parked write: once the reader drains the pipe, the
   write completes through its own reference, and the write end's last
   reference goes with it, so the reader then sees EOF. *)
let test_sibling_closes_write_fd () =
  let wrote = ref None and tail = ref None in
  let _, outcome =
    boot (fun () ->
        let r, w = ok "pipe" (Ksim.Api.pipe ()) in
        fill w;
        ignore (Ksim.Api.thread_create (fun () -> wrote := Some (Ksim.Api.write w "x")));
        yields 2;
        ignore (ok "close" (Ksim.Api.close w));
        ignore (ok "drain" (Ksim.Api.read r 65_536));
        yields 2;
        let first = Ksim.Api.read r 2 in
        tail := Some (first, Ksim.Api.read r 2))
  in
  (match outcome with
  | Ksim.Kernel.All_exited -> ()
  | o -> Alcotest.failf "outcome %a" Ksim.Kernel.pp_outcome o);
  (match !wrote with
  | Some (Ok 1) -> ()
  | _ -> Alcotest.fail "the parked write should complete");
  match !tail with
  | Some (Ok "x", Ok "") -> ()
  | _ -> Alcotest.fail "the reader should get the byte, then EOF"

let tc n f = Alcotest.test_case n `Quick f

(* [test_wake.exe goldens N] prints the digests of seeds 1-N in the
   layout of wake_refs.ml. *)
let print_goldens n =
  Printf.printf
    "(* Digests of the random blocking programs of test_wake.ml, seeds\n\
    \   1-%d: the order of wakeups the kernel keeps (seeds after 1000 add\n\
    \   the SIGPIPE trap). Printed by test_wake.exe goldens %d. *)\n\n\
     let table =\n  [\n" n n;
  for seed = 1 to n do
    Printf.printf "    (%d, %S);\n" seed (digest (script_of_seed seed))
  done;
  print_string "  ]\n"

let () =
  match Sys.argv with
  | [| _; "goldens"; n |] -> print_goldens (int_of_string n)
  | _ ->
  Alcotest.run "wake"
    [
      ("goldens", [ tc "random blocking programs" test_goldens ]);
      ("replay", [ QCheck_alcotest.to_alcotest prop_deterministic ]);
      ( "traps",
        [
          tc "pass order" test_pass_order;
          tc "dead exclusive waiter hands off" test_dead_waiter_hands_off;
          tc "accept on a closed listener" test_accept_listener_closed;
          tc "poller killed mid-pass" test_poller_killed_mid_pass;
          tc "sibling closes a parked read's fd" test_sibling_closes_read_fd;
          tc "sibling closes a parked write's fd" test_sibling_closes_write_fd;
        ] );
    ]
