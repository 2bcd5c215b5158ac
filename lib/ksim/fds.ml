(* File descriptors, pipes, file locks and the working directory. *)

open Machine

let console_flags =
  { Types.o_rdwr with Types.create = false; trunc = false }

let console_ofd t = Ofd.make (Ofd.Console (Vfs.console_buffer t.vfs)) ~flags:console_flags

let open_ofd t (proc : Proc.t) path flags =
  if flags.Types.create then
    match Vfs.create_file t.vfs ~cwd:proc.Proc.cwd path ~trunc:flags.Types.trunc with
    | Error e -> Error e
    | Ok r -> Ok (Ofd.make (Ofd.Reg_file r) ~flags)
  else
    match Vfs.resolve t.vfs ~cwd:proc.Proc.cwd path with
    | Error e -> Error e
    | Ok (Vfs.Reg r) ->
      if flags.Types.trunc && flags.Types.write then Vfs.Reg.truncate r;
      Ok (Ofd.make (Ofd.Reg_file r) ~flags)
    | Ok (Vfs.Console buf) -> Ok (Ofd.make (Ofd.Console buf) ~flags)
    | Ok (Vfs.Dir _) ->
      if flags.Types.write then Error Errno.EISDIR else Error Errno.EACCES

(* Give [ofd] the lowest free fd, or release it when the table is full
   (open, socket, accept). *)
let install_fd (proc : Proc.t) ~cloexec ofd =
  match Fd_table.alloc proc.Proc.fdt ~cloexec ofd with
  | Ok fd -> Ok fd
  | Error e ->
    Ofd.close ofd;
    Error e

let regular_of_fd (proc : Proc.t) fd =
  match Fd_table.get proc.Proc.fdt fd with
  | Error e -> Error e
  | Ok ofd -> (
    match Ofd.backing ofd with
    | Ofd.Reg_file r -> Ok r
    | Ofd.Console _ | Ofd.Pipe_read _ | Ofd.Pipe_write _ | Ofd.Null
    | Ofd.Socket _ ->
      Error Errno.EINVAL)

(* ------------------------------------------------------------------ *)
(* Syscalls *)

let openf t proc path flags =
  Reply
    (Result.bind (open_ofd t proc path flags)
       (install_fd proc ~cloexec:flags.Types.cloexec))

let close (proc : Proc.t) fd = Reply (Fd_table.close proc.Proc.fdt fd)

let read (proc : Proc.t) fd n =
  match Fd_table.get proc.Proc.fdt fd with
  | Error e -> Reply (Error e)
  | Ok ofd ->
    let on =
      match Ofd.source ofd with Some p -> [ Pipe.read_waiters p ] | None -> []
    in
    block on ~held:ofd (fun () ->
        match Ofd.read ofd n with
        | Ofd.Data s -> Some (Ok s)
        | Ofd.End_of_file -> Some (Ok "")
        | Ofd.Fail e -> Some (Error e)
        | Ofd.Retry -> None)

let write t (proc : Proc.t) fd data =
  match Fd_table.get proc.Proc.fdt fd with
  | Error e -> Reply (Error e)
  | Ok ofd ->
    let on =
      match Ofd.sink ofd with Some p -> [ Pipe.write_waiters p ] | None -> []
    in
    block on ~held:ofd (fun () ->
        match Ofd.write ofd data with
        | Ofd.Wrote n -> Some (Ok n)
        | Ofd.Fail_write e -> Some (Error e)
        | Ofd.Broken_pipe ->
          Lifecycle.post_signal t proc Usignal.SIGPIPE;
          Some (Error Errno.EPIPE)
        | Ofd.Retry_write -> None)

let dup (proc : Proc.t) fd = Reply (Fd_table.dup proc.Proc.fdt fd)
let dup2 (proc : Proc.t) ~src ~dst = Reply (Fd_table.dup2 proc.Proc.fdt ~src ~dst)
let set_cloexec (proc : Proc.t) fd v = Reply (Fd_table.set_cloexec proc.Proc.fdt fd v)

let pipe (proc : Proc.t) =
  let pipe = Pipe.create () in
  let rofd = Ofd.make (Ofd.Pipe_read pipe) ~flags:Types.o_rdonly in
  let wofd =
    Ofd.make (Ofd.Pipe_write pipe)
      ~flags:{ Types.o_wronly with Types.create = false; trunc = false }
  in
  match Fd_table.alloc proc.Proc.fdt ~cloexec:false rofd with
  | Error e ->
    Ofd.close rofd;
    Ofd.close wofd;
    Reply (Error e)
  | Ok rfd -> (
    match Fd_table.alloc proc.Proc.fdt ~cloexec:false wofd with
    | Error e ->
      ignore (Fd_table.close proc.Proc.fdt rfd);
      Ofd.close wofd;
      Reply (Error e)
    | Ok wfd -> Reply (Ok (rfd, wfd)))

let try_lock (proc : Proc.t) fd =
  match regular_of_fd proc fd with
  | Error e -> Reply (Error e)
  | Ok r -> (
    match r.Vfs.lock_owner with
    | None ->
      r.Vfs.lock_owner <- Some proc.Proc.pid;
      proc.Proc.held_locks <- r :: proc.Proc.held_locks;
      Reply (Ok ())
    | Some owner when owner = proc.Proc.pid -> Reply (Ok ())
    | Some _ -> Reply (Error Errno.EAGAIN))

let unlock (proc : Proc.t) fd =
  match regular_of_fd proc fd with
  | Error e -> Reply (Error e)
  | Ok r -> (
    match r.Vfs.lock_owner with
    | Some owner when owner = proc.Proc.pid ->
      r.Vfs.lock_owner <- None;
      proc.Proc.held_locks <-
        List.filter (fun held -> held != r) proc.Proc.held_locks;
      Reply (Ok ())
    | Some _ -> Reply (Error Errno.EPERM)
    | None -> Reply (Error Errno.EINVAL))

let chdir t (proc : Proc.t) path =
  match Vfs.resolve t.vfs ~cwd:proc.Proc.cwd path with
  | Ok (Vfs.Dir _) ->
    proc.Proc.cwd <-
      "/" ^ String.concat "/" (Vfs.normalize ~cwd:proc.Proc.cwd path);
    Reply (Ok ())
  | Ok (Vfs.Reg _ | Vfs.Console _) -> Reply (Error Errno.ENOTDIR)
  | Error e -> Reply (Error e)

let getcwd (proc : Proc.t) = Reply proc.Proc.cwd

let stdio_flushed t ~bytes ~inherited =
  Kstat.on_stdio_flush t.kstat ~bytes ~inherited;
  Reply ()
