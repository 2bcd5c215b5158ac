(* E17 — prefork serving under load. Three ways to turn one listening
   socket into a server: a master that accepts and dispatches to prefork
   workers over pipes, per-worker accept on a shared listener (the
   SO_REUSEPORT idiom), and fork-per-request (inetd style). An open-loop
   Poisson or bursty load generator runs as its own process; the kernel
   trace gives per-request latency, kstat gives accept-queue depth and
   per-worker dispatch imbalance, and a seeded fault schedule kills a
   worker mid-run to show how each topology degrades.

   The real-OS side drives a Spawnlib.Pool through a select loop
   (Pool.Load) with hundreds of requests in flight — including a run
   that SIGKILLs a worker mid-load — against serial fork+exec per
   request. *)

let ok_or_die what = function
  | Ok v -> v
  | Error e ->
    invalid_arg ("Exp_serve: " ^ what ^ ": " ^ Ksim.Errno.to_string e)

let port = 80
let backlog = 8
let heap_mib = 16

(* Server-side work: each request write-touches an 8-page window of a
   buffer the master mapped before forking, cycling through 16 windows.
   Prefork workers break the window's COW once and then write in place;
   a fork-per-request child re-pays the COW break on every connection —
   the paper's amortisation argument, visible in the latency. *)
let page = 4096
let win_pages = 8
let n_windows = 16

let setup_work () =
  let len = page * win_pages * n_windows in
  let addr = ok_or_die "mmap" (Ksim.Api.mmap ~len ~perm:Vmem.Perm.rw) in
  ignore (ok_or_die "touch" (Ksim.Api.touch ~addr ~len));
  addr

let do_work addr i =
  let off = i mod n_windows * win_pages * page in
  ignore (Ksim.Api.touch ~addr:(addr + off) ~len:(win_pages * page))

type model = Dispatch | Reuseport | Inetd

let model_name = function
  | Dispatch -> "dispatch"
  | Reuseport -> "per-worker accept"
  | Inetd -> "fork-per-request"

type load = {
  load_name : string;
  lam : float;  (** mean arrivals per round *)
  rounds : int;
  gap : int;  (** simulated ticks between rounds *)
  bursty : bool;  (** 4x lambda every 4th round, silence between *)
  seed : int;
}

(* Arrivals are drawn before boot (Knuth's method over splitmix), so the
   offered schedule is a pure function of the seed and every model sees
   the identical load. *)
let schedule_of load =
  let rng = Prng.Splitmix.create ~seed:load.seed in
  let poisson lam =
    let l = exp (-.lam) in
    let rec go k p =
      let p = p *. Prng.Splitmix.float rng in
      if p > l then go (k + 1) p else k
    in
    go 0 1.0
  in
  let a =
    Array.init load.rounds (fun i ->
        if load.bursty then
          if (i + 1) mod 4 = 0 then poisson (4.0 *. load.lam) else 0
        else poisson load.lam)
  in
  if Array.for_all (( = ) 0) a then a.(0) <- 1;
  a

(* Simulated processes share the harness heap, so plain refs written by
   clients and workers are readable by the master (and by the harness
   after the run) without any in-sim IPC. *)
type shared = {
  completed : int ref;  (** client requests answered *)
  refused : int ref;  (** client connects refused (ECONNREFUSED) *)
  served : int array;  (** per worker slot; cell 0 for fork-per-request *)
  crashed : int ref;  (** workers lost to the fault schedule *)
}

(* ------------------------------------------------------------------ *)
(* Load generator: one forked process; each arrival is a client thread
   doing connect / request / reply / close. *)

let client sh () =
  match Ksim.Api.socket () with
  | Error _ -> incr sh.refused
  | Ok fd ->
    (match Ksim.Api.connect fd ~port with
    | Error _ -> incr sh.refused
    | Ok () ->
      (match Ksim.Api.write_all fd "R" with Ok () | Error _ -> ());
      (match Ksim.Api.read fd 64 with Ok _ | Error _ -> ());
      incr sh.completed);
    ignore (Ksim.Api.close fd)

let loadgen ~schedule ~gap ~total sh () =
  Array.iter
    (fun k ->
      for _ = 1 to k do
        ignore (ok_or_die "client" (Ksim.Api.thread_create (client sh)))
      done;
      ignore (Ksim.Api.poll ~timeout:(max 1 gap) []))
    schedule;
  (* a process dies with its main thread; outlive the client threads *)
  while !(sh.completed) + !(sh.refused) < total do
    ignore (Ksim.Api.poll ~timeout:1 [])
  done

let listener () =
  let fd = ok_or_die "socket" (Ksim.Api.socket ()) in
  ok_or_die "bind" (Ksim.Api.bind fd ~port);
  ok_or_die "listen" (Ksim.Api.listen fd ~backlog);
  fd

(* The load generator is forked right after the listener exists and
   before any worker pipes, so it holds no references that would keep a
   pipe's write side open (EOF is the workers' shutdown signal). *)
let fork_loadgen ~schedule ~gap ~total sh lg_pid =
  lg_pid :=
    ok_or_die "fork loadgen"
      (Ksim.Api.fork ~child:(loadgen ~schedule ~gap ~total sh))

let drain ~gap ~total sh =
  while !(sh.completed) + !(sh.refused) < total do
    ignore (Ksim.Api.poll ~timeout:(max 1 gap) [])
  done

(* ------------------------------------------------------------------ *)
(* Model 1: per-worker accept on the shared listener (SO_REUSEPORT
   idiom). Whichever parked worker the kernel wakes first wins the
   connection — the dispatch-imbalance axis. *)

let rec reuseport_worker lfd addr sh i =
  match Ksim.Api.accept lfd with
  | Error _ ->
    (* the fault schedule's injected EINTR lands here: worker dies *)
    incr sh.crashed;
    Ksim.Api.exit 17
  | Ok conn -> (
    match Ksim.Api.read conn 16 with
    | Ok "Q" | Ok "" | Error _ ->
      ignore (Ksim.Api.close conn);
      Ksim.Api.exit 0
    | Ok _ ->
      do_work addr sh.served.(i);
      sh.served.(i) <- sh.served.(i) + 1;
      ignore (Ksim.Api.write_all conn "k");
      ignore (Ksim.Api.close conn);
      reuseport_worker lfd addr sh i)

let reuseport_body ~workers ~schedule ~gap ~total sh lg_pid () =
  let addr = setup_work () in
  let lfd = listener () in
  fork_loadgen ~schedule ~gap ~total sh lg_pid;
  for i = 0 to workers - 1 do
    ignore
      (ok_or_die "fork worker"
         (Ksim.Api.fork ~child:(fun () -> reuseport_worker lfd addr sh i)))
  done;
  drain ~gap ~total sh;
  (* every worker's fd table holds a reference to the shared listener,
     so the master cannot close it shut; retire each live worker with a
     QUIT connection instead (a crashed worker's QUIT just lingers on
     the queue until the listener is released) *)
  for _ = 1 to workers - !(sh.crashed) do
    match Ksim.Api.socket () with
    | Error _ -> ()
    | Ok fd ->
      (match Ksim.Api.connect fd ~port with
      | Ok () -> (
        match Ksim.Api.write_all fd "Q" with Ok () | Error _ -> ())
      | Error _ -> ());
      ignore (Ksim.Api.close fd)
  done;
  ignore (Ksim.Api.wait_all ());
  ignore (Ksim.Api.close lfd)

(* ------------------------------------------------------------------ *)
(* Model 2: accept-and-dispatch. The master owns the listener and every
   connection; workers see only their request pipe (one "R" byte per
   job) and reply pipe. Round-robin dispatch, so imbalance ~1. *)

let dispatch_worker ~req_r ~rep_w addr sh i =
  let rec loop () =
    match Ksim.Api.read req_r 64 with
    | Ok "" | Error _ -> Ksim.Api.exit 0
    | Ok s ->
      String.iter
        (fun _ ->
          do_work addr sh.served.(i);
          sh.served.(i) <- sh.served.(i) + 1;
          ignore (Ksim.Api.write_all rep_w "k"))
        s;
      loop ()
  in
  loop ()

let dispatch_body ~workers ~schedule ~gap ~total sh lg_pid () =
  let addr = setup_work () in
  let lfd = listener () in
  fork_loadgen ~schedule ~gap ~total sh lg_pid;
  let req = Array.init workers (fun _ -> ok_or_die "pipe" (Ksim.Api.pipe ())) in
  let rep = Array.init workers (fun _ -> ok_or_die "pipe" (Ksim.Api.pipe ())) in
  for i = 0 to workers - 1 do
    ignore
      (ok_or_die "fork worker"
         (Ksim.Api.fork ~child:(fun () ->
              (* keep only this worker's request read end and reply
                 write end: a stray write-end reference in a sibling
                 would defeat the EOF shutdown *)
              ignore (Ksim.Api.close lfd);
              Array.iteri
                (fun j (r, w) ->
                  ignore (Ksim.Api.close w);
                  if j <> i then ignore (Ksim.Api.close r))
                req;
              Array.iteri
                (fun j (r, w) ->
                  ignore (Ksim.Api.close r);
                  if j <> i then ignore (Ksim.Api.close w))
                rep;
              dispatch_worker ~req_r:(fst req.(i)) ~rep_w:(snd rep.(i)) addr
                sh i)))
  done;
  Array.iter (fun (r, _) -> ignore (Ksim.Api.close r)) req;
  Array.iter (fun (_, w) -> ignore (Ksim.Api.close w)) rep;
  (* master event loop: listener + conns awaiting a request + worker
     reply pipes, all through one poll *)
  let pending = ref [] in
  let fifo = Array.init workers (fun _ -> Queue.create ()) in
  let rr = ref 0 in
  let inflight () =
    List.length !pending
    + Array.fold_left (fun a q -> a + Queue.length q) 0 fifo
  in
  while
    not (!(sh.completed) + !(sh.refused) >= total && inflight () = 0)
  do
    let interests =
      Ksim.Types.pollin lfd
      :: (List.map Ksim.Types.pollin !pending
         @ Array.to_list (Array.map (fun (r, _) -> Ksim.Types.pollin r) rep))
    in
    match Ksim.Api.poll ~timeout:(max 1 gap) interests with
    | Error _ | Ok [] -> ()
    | Ok revents ->
      List.iter
        (fun (rv : Ksim.Types.poll_revent) ->
          let fd = rv.Ksim.Types.pr_fd in
          if fd = lfd then (
            if rv.Ksim.Types.pr_in then
              (* level-triggered: drain the whole accept queue, not one
                 connection per wakeup, or bursts overflow the backlog *)
              let rec drain_accepts () =
                match Ksim.Api.accept lfd with
                | Error _ -> ()
                | Ok conn -> (
                  pending := !pending @ [ conn ];
                  match
                    Ksim.Api.poll ~timeout:0 [ Ksim.Types.pollin lfd ]
                  with
                  | Ok (_ :: _) -> drain_accepts ()
                  | Ok [] | Error _ -> ())
              in
              drain_accepts ())
          else if List.mem fd !pending then (
            if rv.Ksim.Types.pr_in || rv.Ksim.Types.pr_hup then (
              pending := List.filter (fun c -> c <> fd) !pending;
              match Ksim.Api.read fd 16 with
              | Ok s when s <> "" ->
                let i = !rr in
                rr := (!rr + 1) mod workers;
                ignore (Ksim.Api.write_all (snd req.(i)) "R");
                Queue.add fd fifo.(i)
              | Ok _ | Error _ -> ignore (Ksim.Api.close fd)))
          else
            Array.iteri
              (fun i (r, _) ->
                if fd = r && rv.Ksim.Types.pr_in then
                  match Ksim.Api.read r 64 with
                  | Ok s ->
                    (* one byte per finished job, FIFO per worker *)
                    String.iter
                      (fun _ ->
                        match Queue.take_opt fifo.(i) with
                        | Some conn ->
                          ignore (Ksim.Api.write_all conn "k");
                          ignore (Ksim.Api.close conn)
                        | None -> ())
                      s
                  | Error _ -> ())
              rep)
        revents
  done;
  Array.iter (fun (_, w) -> ignore (Ksim.Api.close w)) req;
  ignore (Ksim.Api.wait_all ());
  Array.iter (fun (r, _) -> ignore (Ksim.Api.close r)) rep;
  ignore (Ksim.Api.close lfd)

(* ------------------------------------------------------------------ *)
(* Model 3: fork-per-request (inetd). The master accepts and forks a
   fresh handler per connection; every handler re-pays the COW break on
   the work window its prefork cousins amortise. *)

let inetd_body ~schedule ~gap ~total sh lg_pid () =
  let addr = setup_work () in
  let lfd = listener () in
  fork_loadgen ~schedule ~gap ~total sh lg_pid;
  let handled = ref 0 in
  while !(sh.completed) + !(sh.refused) < total do
    match Ksim.Api.poll ~timeout:(max 1 gap) [ Ksim.Types.pollin lfd ] with
    | Error _ | Ok [] -> ()
    | Ok _ ->
      let rec drain_accepts () =
        match Ksim.Api.accept lfd with
        | Error _ -> ()
        | Ok conn -> (
          let i = !handled in
          incr handled;
          ignore
            (ok_or_die "fork handler"
               (Ksim.Api.fork ~child:(fun () ->
                    (match Ksim.Api.read conn 16 with Ok _ | Error _ -> ());
                    do_work addr i;
                    sh.served.(0) <- sh.served.(0) + 1;
                    ignore (Ksim.Api.write_all conn "k");
                    ignore (Ksim.Api.close conn);
                    Ksim.Api.exit 0)));
          ignore (Ksim.Api.close conn);
          match Ksim.Api.poll ~timeout:0 [ Ksim.Types.pollin lfd ] with
          | Ok (_ :: _) -> drain_accepts ()
          | Ok [] | Error _ -> ())
      in
      drain_accepts ()
  done;
  ignore (Ksim.Api.wait_all ());
  ignore (Ksim.Api.close lfd)

(* ------------------------------------------------------------------ *)
(* Sweep points and harvesting *)

type pointspec = {
  ps_model : model;
  ps_workers : int;  (** 0 for fork-per-request *)
  ps_load : load;
  ps_crash : bool;  (** inject EINTR into a mid-run accept *)
}

type point = {
  spec : pointspec;
  total : int;
  completed : int;
  refused : int;
  crashed : int;
  served : int array;
  lats : float array;  (** per-request simulated ns, sorted *)
  makespan_ns : float;
  queue_peak : int;
  poll_wakeups : int;
}

(* Per-request latency from the load generator's trace: each client
   thread is sequential, so its connect Begin pairs with its close End.
   Refused connects are discarded (the connect End carries the Err). *)
let harvest_lats tr ~lg_pid =
  let open Ksim.Trace in
  let tbl = Hashtbl.create 64 in
  let lats = ref [] in
  let t_min = ref infinity and t_max = ref neg_infinity in
  List.iter
    (fun e ->
      if e.pid = lg_pid then
        match (e.what, e.phase) with
        | "connect", Begin ->
          if e.ts_ns < !t_min then t_min := e.ts_ns;
          Hashtbl.replace tbl e.tid (e.ts_ns, false)
        | "connect", End -> (
          match Hashtbl.find_opt tbl e.tid with
          | Some (t0, _) ->
            if e.outcome = Some Ok_result then
              Hashtbl.replace tbl e.tid (t0, true)
            else Hashtbl.remove tbl e.tid
          | None -> ())
        | "close", End -> (
          if e.ts_ns > !t_max then t_max := e.ts_ns;
          match Hashtbl.find_opt tbl e.tid with
          | Some (t0, true) ->
            lats := (e.ts_ns -. t0) :: !lats;
            Hashtbl.remove tbl e.tid
          | Some (_, false) -> Hashtbl.remove tbl e.tid
          | None -> ())
        | _ -> ())
    (events tr);
  let a = Array.of_list !lats in
  Array.sort compare a;
  (a, if !t_max > !t_min then !t_max -. !t_min else 0.0)

let run_point ps =
  let schedule = schedule_of ps.ps_load in
  let total = Array.fold_left ( + ) 0 schedule in
  let gap = ps.ps_load.gap in
  let sh =
    {
      completed = ref 0;
      refused = ref 0;
      served = Array.make (max 1 ps.ps_workers) 0;
      crashed = ref 0;
    }
  in
  let lg_pid = ref (-1) in
  let body =
    match ps.ps_model with
    | Dispatch ->
      dispatch_body ~workers:ps.ps_workers ~schedule ~gap ~total sh lg_pid
    | Reuseport ->
      reuseport_body ~workers:ps.ps_workers ~schedule ~gap ~total sh lg_pid
    | Inetd -> inetd_body ~schedule ~gap ~total sh lg_pid
  in
  let config =
    {
      (Sim_driver.config_for ~heap_mib) with
      Ksim.Kernel.trace_capacity = Some 131_072;
      fault =
        (if ps.ps_crash then
           Some
             {
               Ksim.Fault.seed = 17;
               triggers =
                 [
                   Ksim.Fault.Syscall_nth
                     {
                       kind = "accept";
                       nth = max 3 (total / 3);
                       errno = Ksim.Errno.EINTR;
                     };
                 ];
             }
         else None);
    }
  in
  let t, _ = Sim_driver.boot_scenario ~config body in
  let tr = Option.get (Ksim.Kernel.trace t) in
  let lats, makespan_ns = harvest_lats tr ~lg_pid:!lg_pid in
  let g = Ksim.Kstat.global (Ksim.Kernel.kstat t) in
  {
    spec = ps;
    total;
    completed = !(sh.completed);
    refused = !(sh.refused);
    crashed = !(sh.crashed);
    served = sh.served;
    lats;
    makespan_ns;
    queue_peak = g.Ksim.Kstat.accept_queue_peak;
    poll_wakeups = g.Ksim.Kstat.poll_wakeups;
  }

let points ~quick =
  let mk load_name bursty seed ~lam ~rounds =
    { load_name; lam; rounds; gap = 4; bursty; seed }
  in
  let loads =
    if quick then
      [
        mk "poisson" false 101 ~lam:2.0 ~rounds:12;
        mk "bursty" true 202 ~lam:2.0 ~rounds:12;
      ]
    else
      [
        mk "poisson" false 101 ~lam:4.0 ~rounds:40;
        mk "bursty" true 202 ~lam:4.0 ~rounds:40;
      ]
  in
  let worker_counts = if quick then [ 2; 4 ] else [ 2; 4; 8 ] in
  let base =
    List.concat_map
      (fun load ->
        List.concat_map
          (fun w ->
            [
              {
                ps_model = Dispatch;
                ps_workers = w;
                ps_load = load;
                ps_crash = false;
              };
              {
                ps_model = Reuseport;
                ps_workers = w;
                ps_load = load;
                ps_crash = false;
              };
            ])
          worker_counts
        @ [
            {
              ps_model = Inetd;
              ps_workers = 0;
              ps_load = load;
              ps_crash = false;
            };
          ])
      loads
  in
  let crash_w = List.fold_left max 0 worker_counts in
  base
  @ [
      {
        ps_model = Reuseport;
        ps_workers = crash_w;
        ps_load = List.hd loads;
        ps_crash = true;
      };
    ]

(* max/mean of per-worker served counts; 1.0 is a perfectly even pool *)
let imbalance p =
  match p.spec.ps_model with
  | Inetd -> None
  | Dispatch | Reuseport ->
    let sum = Array.fold_left ( + ) 0 p.served in
    if sum = 0 then None
    else
      Some
        (float_of_int (Array.fold_left max 0 p.served * Array.length p.served)
        /. float_of_int sum)

let pct p q =
  if Array.length p.lats = 0 then None
  else Some (Metrics.Stats.percentile p.lats q)

let rps p =
  if p.makespan_ns <= 0.0 then 0.0
  else float_of_int p.completed /. p.makespan_ns *. 1e9

(* ------------------------------------------------------------------ *)
(* Real-OS side: a prefork Spawnlib.Pool under a concurrent select-loop
   load (Pool.Load), with and without killing a worker mid-run, against
   serial fork+exec per request. *)

let real_rows ~quick =
  let requests = if quick then 300 else 2000 in
  let concurrency = if quick then 220 else 240 in
  let fmt_ns v = Metrics.Units.ns v in
  let load_row name ?kill_after () =
    match Spawnlib.Pool.create ~size:4 ~prog:"/bin/cat" ~argv:[ "cat" ] () with
    | Error e ->
      invalid_arg ("Exp_serve real: pool: " ^ Spawnlib.Pool.error_message e)
    | Ok pool ->
      Fun.protect
        ~finally:(fun () -> ignore (Spawnlib.Pool.shutdown pool))
        (fun () ->
          let r =
            Spawnlib.Pool.Load.run ~concurrency ?kill_after ~requests
              ~request:(fun i -> Printf.sprintf "req-%d" i)
              pool
          in
          let lat = r.Spawnlib.Pool.Load.latencies in
          let p q =
            if Array.length lat = 0 then "-"
            else fmt_ns (1e9 *. Metrics.Stats.percentile lat q)
          in
          [
            name;
            string_of_int r.Spawnlib.Pool.Load.completed;
            string_of_int r.Spawnlib.Pool.Load.errors;
            string_of_int r.Spawnlib.Pool.Load.max_outstanding;
            p 50.0;
            p 99.0;
            p 99.9;
            (let w = r.Spawnlib.Pool.Load.wall_s in
             if w <= 0.0 then "-"
             else
               Printf.sprintf "%.0f"
                 (float_of_int r.Spawnlib.Pool.Load.completed /. w));
          ])
  in
  let forkexec_row () =
    let n = if quick then 30 else 100 in
    let samples =
      Workload.Timer.sample ~warmup:2 ~n (fun () ->
          match
            Spawnlib.Native.fork_exec ~prog:"/bin/true" ~argv:[ "true" ] ()
          with
          | Ok pid -> ignore (Spawnlib.Native.wait_exit pid)
          | Error e ->
            invalid_arg
              ("Exp_serve real: fork_exec: " ^ Spawnlib.Native.errno_message e))
    in
    let sorted = Array.copy samples in
    Array.sort compare sorted;
    let s = Metrics.Stats.of_array samples in
    [
      Printf.sprintf "fork+exec per request (serial, %d requests)" n;
      string_of_int n;
      "0";
      "1";
      fmt_ns s.Metrics.Stats.p50;
      fmt_ns s.Metrics.Stats.p99;
      fmt_ns (Metrics.Stats.percentile sorted 99.9);
      Printf.sprintf "%.0f" (1e9 /. s.Metrics.Stats.mean);
    ]
  in
  [
    load_row
      (Printf.sprintf "prefork pool, %d workers, %d in flight" 4 concurrency)
      ();
    load_row
      (Printf.sprintf
         "prefork pool, worker killed at %d replies" (requests / 4))
      ~kill_after:(requests / 4) ();
    forkexec_row ();
  ]

(* Measured once per [quick], before any Par.map: see
   Exp_churn.real_block. *)
let measure_real_block ~quick =
  match real_rows ~quick with
  | rows ->
    let t =
      Metrics.Table.create ~align:[ Metrics.Table.Left ]
        [
          "real-OS tactic";
          "completed";
          "errors";
          "max in flight";
          "p50";
          "p99";
          "p99.9";
          "req/s";
        ]
    in
    List.iter (Metrics.Table.add_row t) rows;
    Report.Table
      {
        caption =
          Printf.sprintf
            "real OS, %d concurrent requests through a 4-worker \
             Spawnlib.Pool select loop vs serial fork+exec"
            (if quick then 300 else 2000);
        table = t;
      }
  | exception e ->
    Report.Note
      ("real-side serving skipped in this environment: "
     ^ Printexc.to_string e)

let real_block =
  let quick_block = lazy (measure_real_block ~quick:true)
  and full_block = lazy (measure_real_block ~quick:false) in
  fun ~quick -> Lazy.force (if quick then quick_block else full_block)

(* ------------------------------------------------------------------ *)

let run ~quick =
  let real_block = real_block ~quick in
  let pts = Workload.Par.map run_point (points ~quick) in
  let table =
    Metrics.Table.create
      ~align:[ Metrics.Table.Left; Metrics.Table.Left; Metrics.Table.Left ]
      [
        "model";
        "workers";
        "load";
        "offered";
        "served";
        "refused";
        "p50";
        "p99";
        "p99.9";
        "req/s (sim)";
        "accept-q peak";
        "imbalance";
      ]
  in
  List.iter
    (fun p ->
      let s q = match pct p q with None -> "-" | Some v -> Metrics.Units.ns v in
      Metrics.Table.add_row table
        [
          (model_name p.spec.ps_model
          ^ if p.spec.ps_crash then " +crash" else "");
          (if p.spec.ps_workers = 0 then "-"
           else string_of_int p.spec.ps_workers);
          p.spec.ps_load.load_name;
          string_of_int p.total;
          string_of_int p.completed;
          string_of_int p.refused;
          s 50.0;
          s 99.0;
          s 99.9;
          Printf.sprintf "%.0f" (rps p);
          string_of_int p.queue_peak;
          (match imbalance p with
          | None -> "-"
          | Some v -> Printf.sprintf "%.2f" v);
        ])
    pts;
  let data =
    Metrics.Json.obj
      [
        ( "points",
          Metrics.Json.arr
            (List.map
               (fun p ->
                 Metrics.Json.obj
                   ([
                      ("model", Metrics.Json.str (model_name p.spec.ps_model));
                      ("workers", Metrics.Json.int p.spec.ps_workers);
                      ("load", Metrics.Json.str p.spec.ps_load.load_name);
                      ("crash", Metrics.Json.bool p.spec.ps_crash);
                      ("offered", Metrics.Json.int p.total);
                      ("completed", Metrics.Json.int p.completed);
                      ("refused", Metrics.Json.int p.refused);
                      ("crashed_workers", Metrics.Json.int p.crashed);
                      ( "served_per_worker",
                        Metrics.Json.arr
                          (Array.to_list
                             (Array.map Metrics.Json.int p.served)) );
                      ("makespan_ns", Metrics.Json.num p.makespan_ns);
                      ("req_per_sec", Metrics.Json.num (rps p));
                      ("accept_queue_peak", Metrics.Json.int p.queue_peak);
                      ("poll_wakeups", Metrics.Json.int p.poll_wakeups);
                    ]
                   @ (match imbalance p with
                     | None -> []
                     | Some v -> [ ("imbalance", Metrics.Json.num v) ])
                   @
                   if Array.length p.lats = 0 then []
                   else
                     [
                       ( "latency",
                         Metrics.Stats.to_json
                           (Metrics.Stats.of_array p.lats) );
                       ( "p999_ns",
                         Metrics.Json.num
                           (Metrics.Stats.percentile p.lats 99.9) );
                     ]))
               pts) );
      ]
  in
  Report.make ~id:"E17" ~title:"serving under load: prefork vs fork-per-request"
    [
      Report.Table
        {
          caption =
            "simulated, open-loop arrivals (one kernel boot per cell); \
             latency is connect-to-close from the load generator's trace, \
             imbalance is max/mean of per-worker served counts";
          table;
        };
      real_block;
      Report.Note
        "fork-per-request re-pays the fork plus the work window's COW \
         breaks on every connection, so its tail latency and throughput \
         trail both prefork topologies. Per-worker accept keeps the \
         master out of the data path but dispatches by wake-up order, so \
         its imbalance drifts from 1.0 under bursts, while the \
         dispatching master stays near 1.0 at the price of touching \
         every byte. The +crash row is the fault schedule killing one \
         worker mid-run: the remaining workers absorb its share and the \
         offered load still drains. The real-OS table shows the same \
         prefork pool sustaining hundreds of in-flight requests through \
         a select loop, surviving a SIGKILLed worker mid-run.";
      Report.Data { name = "serve-points"; json = data };
    ]

let experiment =
  {
    Report.exp_id = "E17";
    exp_title = "serving under load: prefork vs fork-per-request";
    paper_claim =
      "servers fork because it is there, not because it is fast: a \
       prefork worker pool amortises process creation across requests, \
       while fork-per-request pays address-space duplication and COW \
       faults on every connection and collapses under load; per-worker \
       accept trades the dispatch master for wake-order imbalance";
    exp_kind = Report.Sim;
    run = (fun ~quick -> run ~quick);
  }
