(* Stream sockets, the port table and poll. *)

open Machine

let socket_of_fd (proc : Proc.t) fd =
  match Fd_table.get proc.Proc.fdt fd with
  | Error e -> Error e
  | Ok ofd -> (
    match Ofd.backing ofd with
    | Ofd.Socket sk -> Ok sk
    | Ofd.Reg_file _ | Ofd.Console _ | Ofd.Pipe_read _ | Ofd.Pipe_write _
    | Ofd.Null ->
      (* not a socket: EINVAL (we carry no ENOTSOCK) *)
      Error Errno.EINVAL)

(* Sockets are bidirectional and never create/truncate anything. *)
let sock_flags =
  {
    Types.read = true;
    write = true;
    append = false;
    create = false;
    trunc = false;
    cloexec = false;
  }

(* One fd's poll readiness, POSIX-flavored: POLLHUP when the read side
   is at EOF with no writers left, POLLERR when the write side has no
   readers (writes would EPIPE) — both reported regardless of the
   subscription. Pipe ends and connected sockets are read through the
   pipes {!Ofd.source} and {!Ofd.sink} name; a socket with neither is a
   listener, "readable" when accept would not block, or unconnected, an
   error. Regular files, console and null are always ready, like
   poll(2) on anything that isn't a pipe/socket/tty. *)
let poll_ready (i : Types.poll_interest) ofd =
  let src = Ofd.source ofd and snk = Ofd.sink ofd in
  let test f = function Some p -> f p | None -> false in
  let r_in, r_out, r_hup, r_err =
    match Ofd.backing ofd with
    | Ofd.Reg_file _ | Ofd.Console _ | Ofd.Null -> (true, true, false, false)
    | Ofd.Socket sk when Option.is_none src -> (
      match Socket.backlog_depth sk with
      | Some depth -> (depth > 0, false, false, false)
      | None -> (false, false, false, true))
    | Ofd.Pipe_read _ | Ofd.Pipe_write _ | Ofd.Socket _ ->
      ( test (fun p -> Pipe.available p > 0 || Pipe.eof p) src,
        test (fun p -> Pipe.space p > 0 && not (Pipe.broken p)) snk,
        test Pipe.eof src,
        test Pipe.broken snk )
  in
  let pr_in = i.Types.pi_in && r_in in
  let pr_out = i.Types.pi_out && r_out in
  if pr_in || pr_out || r_hup || r_err then
    Some
      {
        Types.pr_fd = i.Types.pi_fd;
        pr_in;
        pr_out;
        pr_hup = r_hup;
        pr_err = r_err;
      }
  else None

(* The queues a parked poll on [ofd] waits on: those of every pipe its
   readiness reads, or a listener's. *)
let poll_waiters ofd =
  let pipe = function Some p -> [ Pipe.poll_waiters p ] | None -> [] in
  match Ofd.backing ofd with
  | Ofd.Socket sk when Option.is_none (Ofd.source ofd) -> (
    match Socket.state sk with
    | Socket.Listening { poll_waiters; _ } -> [ poll_waiters ]
    | Socket.Fresh | Socket.Bound _ | Socket.Connected _ | Socket.Closed -> [])
  | Ofd.Pipe_read _ | Ofd.Pipe_write _ | Ofd.Socket _ | Ofd.Reg_file _
  | Ofd.Console _ | Ofd.Null ->
    pipe (Ofd.source ofd) @ pipe (Ofd.sink ofd)

(* ------------------------------------------------------------------ *)
(* Syscalls *)

let socket (proc : Proc.t) =
  Reply
    (Fds.install_fd proc ~cloexec:false
       (Ofd.make (Ofd.Socket (Socket.create ())) ~flags:sock_flags))

let bind t proc fd port =
  match socket_of_fd proc fd with
  | Error e -> Reply (Error e)
  | Ok sk ->
    let in_use =
      match Hashtbl.find_opt t.socks port with
      | Some holder -> Socket.state holder <> Socket.Closed
      | None -> false
    in
    let r = Socket.bind sk port ~in_use in
    if Result.is_ok r then Hashtbl.replace t.socks port sk;
    Reply r

let listen proc fd backlog =
  match socket_of_fd proc fd with
  | Error e -> Reply (Error e)
  | Ok sk -> Reply (Socket.listen sk backlog)

let accept t (proc : Proc.t) fd =
  match socket_of_fd proc fd with
  | Error e -> Reply (Error e)
  | Ok sk -> (
    match Socket.state sk with
    | Socket.Fresh | Socket.Bound _ | Socket.Connected _ | Socket.Closed ->
      Reply (Error Errno.EINVAL)
    | Socket.Listening { accept_waiters; _ } ->
      (* several accepters may park on one listener (the per-worker
         accept idiom) and the longest-parked one wins each
         connection, deterministically. A parked accept holds no
         reference: the listener's last close fails it. *)
      block [ accept_waiters ] (fun () ->
          match Socket.accept sk with
          | Some conn_sk ->
            (* a full fd table releases the adopted server endpoint:
               the client sees EOF/EPIPE, not a connection leak *)
            let r =
              Fds.install_fd proc ~cloexec:false
                (Ofd.make (Ofd.Socket conn_sk) ~flags:sock_flags)
            in
            if Result.is_ok r then
              Kstat.on_accept t.kstat ~pid:proc.Proc.pid;
            Some r
          | None -> (
            match Socket.state sk with
            | Socket.Listening _ -> None
            | Socket.Fresh | Socket.Bound _ | Socket.Connected _
            | Socket.Closed ->
              (* listener closed while we were parked *)
              Some (Error Errno.EINVAL))))

let connect t proc fd port =
  match socket_of_fd proc fd with
  | Error e -> Reply (Error e)
  | Ok sk -> (
    match Hashtbl.find_opt t.socks port with
    | (Some _ | None) when Socket.state sk <> Socket.Fresh ->
      Reply (Error Errno.EINVAL)
    | Some srv when Socket.state srv <> Socket.Closed -> (
      let r = Socket.connect sk ~srv in
      Kstat.on_connect t.kstat
        ~refused:(r = Error Errno.ECONNREFUSED);
      match r with
      | Ok () ->
        (match Socket.backlog_depth srv with
        | Some depth -> Kstat.on_accept_queue t.kstat ~depth
        | None -> ());
        Reply (Ok ())
      | Error e -> Reply (Error e))
    | Some _ | None ->
      (* nobody (alive) listens on that port *)
      Kstat.on_connect t.kstat ~refused:true;
      Reply (Error Errno.ECONNREFUSED))

let poll t (proc : Proc.t) interests timeout =
  let rec lookup acc = function
    | [] -> Ok (List.rev acc)
    | i :: rest -> (
      match Fd_table.get proc.Proc.fdt i.Types.pi_fd with
      | Error e -> Error e
      | Ok ofd -> lookup ((i, ofd) :: acc) rest)
  in
  match lookup [] interests with
  | Error e -> Reply (Error e)
  | Ok pairs ->
    (* a zero timeout's deadline is now, so the dispatcher's first
       check is the non-blocking probe and reports current readiness
       (possibly []) *)
    let deadline = if timeout < 0 then None else Some (t.clock + timeout) in
    block ?deadline
      (List.concat_map (fun (_, ofd) -> poll_waiters ofd) pairs)
      (fun () ->
        match List.filter_map (fun (i, ofd) -> poll_ready i ofd) pairs with
        | [] -> (
          match deadline with
          | Some d when t.clock >= d ->
            Kstat.on_poll_wake t.kstat ~pid:proc.Proc.pid ~timed_out:true;
            Some (Ok [])
          | Some _ | None -> None)
        | ready ->
          Kstat.on_poll_wake t.kstat ~pid:proc.Proc.pid ~timed_out:false;
          Some (Ok ready))
