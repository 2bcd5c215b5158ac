(* serve-parked: a per-worker-accept prefork server (4 workers sharing
   one listener) on the legacy scheduler. A forked load generator
   creates client threads in seed-drawn bursts at seed-drawn simulated
   ticks (an open loop; the arrival schedule is drawn before boot). Each
   client runs socket/connect/write/read/close against a backlog that
   never refuses, sending a seed-drawn 1-64 byte request that names one
   of 16 8-page windows of a buffer the master mapped before forking;
   the worker write-touches that window (breaking its COW once per
   worker) and echoes as many bytes back. An op is one request, timed
   from just before the generator creates its thread to when its read
   returns. Over a thousand clients sit parked in read at the peak. *)

let name = "serve-parked"
let page = Vmem.Addr.page_size
let port = 80
let workers = 4
let n_requests = 6000
let n_bursts = 6
let win_pages = 8
let n_windows = 16

(* Burst b starts at simulated tick [at] after the generator starts. *)
type burst = { at : int; size : int }
type request = { window : int; len : int }
type plan = { bursts : burst array; requests : request array }

(* Burst sizes are stratified around the mean and sum to [n_requests];
   gaps are stratified in 500-6000 ticks. Creating and serving a request
   takes about 13 ticks, so the offered load outruns the server: clients
   pile up parked, and the generator runs late (its lag is reported).
   Spacing bursts out instead keeps at most a few hundred parked. *)
let plan ~seed : plan =
  let rng = Gen.create ~seed in
  let mean = float_of_int n_requests /. float_of_int n_bursts in
  let shares = Gen.strata rng n_bursts ~lo:0.25 ~hi:1.75 in
  let sizes = Array.map (fun s -> max 1 (int_of_float (s *. mean))) shares in
  let short = n_requests - Array.fold_left ( + ) 0 sizes in
  sizes.(n_bursts - 1) <- max 1 (sizes.(n_bursts - 1) + short);
  let gaps = Gen.strata rng n_bursts ~lo:500.0 ~hi:6000.0 in
  let at = ref 0 in
  let bursts =
    Array.init n_bursts (fun b ->
        let start = !at in
        at := !at + int_of_float gaps.(b);
        { at = start; size = sizes.(b) })
  in
  let windows = Gen.even rng n_requests (Array.init n_windows Fun.id) in
  let lens = Gen.strata rng n_requests ~lo:1.0 ~hi:65.0 in
  { bursts; requests = Array.mapi (fun i w -> { window = w; len = int_of_float lens.(i) }) windows }

let config =
  {
    Ksim.Kernel.default_config with
    Ksim.Kernel.aslr = false;
    sched = `Fifo;
    max_fds = 16384;
  }

(* Counters the simulated programs share through the harness heap. *)
type shared = {
  o : Batch.ops;
  created : float array;  (** host time the generator created request i *)
  mutable refused : int;
}

let ended sh = sh.o.Batch.completed + sh.o.Batch.failed

(* A request names its window by its byte value; "Q" retires a worker. *)
let encode r = String.make r.len (Char.chr (Char.code 'a' + r.window))

let client sh i r () =
  match Call.socket () with
  | Error e -> Batch.fail sh.o i (Batch.errno_code e)
  | Ok fd ->
    (match Call.connect fd ~port with
    | Error e ->
      if e = Ksim.Errno.ECONNREFUSED then sh.refused <- sh.refused + 1;
      Batch.fail sh.o i (Batch.errno_code e)
    | Ok () -> (
      match Call.write fd (encode r) with
      | Error e -> Batch.fail sh.o i (Batch.errno_code e)
      | Ok _ -> (
        match Call.read fd 128 with
        | Ok reply when String.length reply = r.len ->
          Batch.complete sh.o i ~t0:sh.created.(i);
          if ended sh = Array.length sh.created then Batch.mark_last ()
        | Ok _ -> Batch.fail sh.o i 95
        | Error e -> Batch.fail sh.o i (Batch.errno_code e))));
    ignore (Call.close fd)

let loadgen (plan : plan) sh t () =
  let t0 = Ksim.Kernel.clock t in
  let next = ref 0 in
  Batch.mark_first ();
  Array.iter
    (fun b ->
      let due = t0 + b.at in
      let now = Ksim.Kernel.clock t in
      if now < due then ignore (Call.poll ~timeout:(due - now) []);
      sh.o.Batch.lag_ticks <- sh.o.Batch.lag_ticks + (Ksim.Kernel.clock t - due);
      for _ = 1 to b.size do
        let i = !next in
        incr next;
        sh.created.(i) <- Probe.now ();
        match Call.thread_create (client sh i plan.requests.(i)) with
        | Ok _ -> ()
        | Error e -> Batch.fail sh.o i (Batch.errno_code e)
      done)
    plan.bursts;
  (* the process dies with its main thread: outlive the clients *)
  while ended sh < Array.length sh.created do
    ignore (Call.poll ~timeout:64 [])
  done;
  Call.exit 0

let rec worker lfd buf =
  match Call.accept lfd with
  | Error _ -> Call.exit 3
  | Ok conn -> (
    match Call.read conn 128 with
    | Ok s when s <> "" && s <> "Q" ->
      let win = Char.code s.[0] - Char.code 'a' in
      (match
         Call.touch ~addr:(buf + (win * win_pages * page)) ~len:(win_pages * page)
       with
      | Ok _ -> ()
      | Error _ -> Call.exit 4);
      (match Call.write conn (String.make (String.length s) 'k') with
      | Ok _ -> ()
      | Error _ -> Call.exit 5);
      ignore (Call.close conn);
      worker lfd buf
    | Ok _ | Error _ ->
      (* a quit connection (or EOF) retires the worker *)
      ignore (Call.close conn);
      Call.exit 0)

let init (plan : plan) sh t =
  let ok code = function Ok v -> v | Error _ -> Call.exit code in
  let len = n_windows * win_pages * page in
  let buf = ok 2 (Call.mmap ~len) in
  ignore (ok 3 (Call.touch ~addr:buf ~len));
  let lfd = ok 4 (Call.socket ()) in
  ok 5 (Call.bind lfd ~port);
  ok 6 (Call.listen lfd ~backlog:(Array.length sh.created + workers));
  let pool = List.init workers (fun _ -> ok 7 (Call.fork ~child:(fun () -> worker lfd buf))) in
  let children = pool @ [ ok 8 (Call.fork ~child:(loadgen plan sh t)) ] in
  while ended sh < Array.length sh.created do
    ignore (Call.poll ~timeout:256 [])
  done;
  for _ = 1 to workers do
    let fd = ok 9 (Call.socket ()) in
    ok 10 (Call.connect fd ~port);
    ignore (ok 11 (Call.write fd "Q"));
    ignore (Call.close fd)
  done;
  List.iter
    (fun pid ->
      match Call.wait_for pid with
      | Ok (Ksim.Types.Exited 0) -> ()
      | Ok _ | Error _ -> Call.exit 12)
    children;
  ignore (Call.close lfd);
  Call.exit 0

let run plan =
  let n = Array.length plan.requests in
  let sh = { o = Batch.ops n; created = Array.make n 0.0; refused = 0 } in
  let check t =
    let g = Ksim.Kstat.global (Ksim.Kernel.kstat t) in
    List.filter_map Fun.id
      [
        (if sh.o.Batch.completed + sh.refused <> n then
           Some
             (Printf.sprintf "requests completed %d + refused %d <> sent %d"
                sh.o.Batch.completed sh.refused n)
         else None);
        (if g.Ksim.Kstat.sock_refused <> sh.refused then
           Some "kstat refused count disagrees with the clients'"
         else None);
      ]
  in
  Batch.run ~config ~programs:[] ~ops:sh.o ~check (init plan sh)

(* Replay geometry: the master's work buffer, and per request the 8-page
   window it names. *)
let replay plan : Replay.spec =
  {
    Replay.parent = [| n_windows * win_pages |];
    ops =
      Array.map
        (fun r ->
          { Replay.pages = n_windows * win_pages; runs = [| (r.window * win_pages, win_pages) |] })
        plan.requests;
  }
