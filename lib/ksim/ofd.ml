type backing =
  | Reg_file of Vfs.regular
  | Console of Buffer.t
  | Pipe_read of Pipe.t
  | Pipe_write of Pipe.t
  | Null
  | Socket of Socket.t

type t = {
  backing : backing;
  readable : bool;
  writable : bool;
  append : bool;
  mutable offset : int;
  mutable refs : int;
}

let make backing ~flags =
  (match backing with
  | Pipe_read p -> Pipe.add_reader p
  | Pipe_write p -> Pipe.add_writer p
  (* sockets manage their own pipe-end counts: connect attaches both
     endpoints, Socket.release drops them on final close *)
  | Reg_file _ | Console _ | Null | Socket _ -> ());
  {
    backing;
    readable = flags.Types.read;
    writable = flags.Types.write;
    append = flags.Types.append;
    offset = 0;
    refs = 1;
  }

let backing t = t.backing
let offset t = t.offset
let refs t = t.refs

let alive t name = if t.refs <= 0 then invalid_arg (name ^ ": closed description")

let incref t =
  alive t "Ofd.incref";
  t.refs <- t.refs + 1

let close t =
  alive t "Ofd.close";
  t.refs <- t.refs - 1;
  if t.refs = 0 then
    match t.backing with
    | Pipe_read p -> Pipe.drop_reader p
    | Pipe_write p -> Pipe.drop_writer p
    | Socket s -> Socket.release s
    | Reg_file _ | Console _ | Null -> ()

type read_outcome = Data of string | End_of_file | Retry | Fail of Errno.t

type write_outcome =
  | Wrote of int
  | Retry_write
  | Broken_pipe
  | Fail_write of Errno.t

(* The pipe a read (or write) of [t] goes through: a pipe end's own, or
   a connected socket's direction; [None] for every other backing. *)
let source t =
  match t.backing with
  | Pipe_read p -> Some p
  | Socket s -> (
    match Socket.state s with
    | Socket.Connected { conn; role } -> Some (Socket.read_pipe conn role)
    | Socket.Fresh | Socket.Bound _ | Socket.Listening _ | Socket.Closed -> None)
  | Reg_file _ | Console _ | Pipe_write _ | Null -> None

let sink t =
  match t.backing with
  | Pipe_write p -> Some p
  | Socket s -> (
    match Socket.state s with
    | Socket.Connected { conn; role } -> Some (Socket.write_pipe conn role)
    | Socket.Fresh | Socket.Bound _ | Socket.Listening _ | Socket.Closed -> None)
  | Reg_file _ | Console _ | Pipe_read _ | Null -> None

let read t n =
  alive t "Ofd.read";
  if not t.readable then Fail Errno.EBADF
  else if n < 0 then Fail Errno.EINVAL
  else
    match t.backing with
    | Reg_file r ->
      let s = Vfs.Reg.read r ~off:t.offset ~len:n in
      if s = "" && n > 0 then End_of_file
      else begin
        t.offset <- t.offset + String.length s;
        Data s
      end
    | Pipe_write _ -> Fail Errno.EBADF
    | Console _ | Null -> End_of_file
    | Pipe_read _ | Socket _ -> (
      match source t with
      | Some p ->
        if Pipe.available p > 0 then Data (Pipe.read p n)
        else if Pipe.eof p then End_of_file
        else Retry
      | None ->
        (* read on an unconnected socket: EINVAL (we carry no ENOTCONN) *)
        Fail Errno.EINVAL)

let write t s =
  alive t "Ofd.write";
  if not t.writable then Fail_write Errno.EBADF
  else
    match t.backing with
    | Reg_file r ->
      let off = if t.append then Vfs.Reg.size r else t.offset in
      let n = Vfs.Reg.write r ~off s in
      t.offset <- off + n;
      Wrote n
    | Console buf ->
      Buffer.add_string buf s;
      Wrote (String.length s)
    | Pipe_read _ -> Fail_write Errno.EBADF
    | Null -> Wrote (String.length s)
    | Pipe_write _ | Socket _ -> (
      match sink t with
      | Some p ->
        if Pipe.broken p then Broken_pipe
        else if Pipe.space p = 0 && String.length s > 0 then Retry_write
        else Wrote (Pipe.write p s)
      | None -> Fail_write Errno.EINVAL)
