(* A deliberately small TCP-flavored socket: a connection is a pair of
   bounded pipes, one per direction, and the "network" is the kernel's
   port table. The handshake is synchronous-at-connect: a successful
   connect() enqueues a fully-wired connection on the listener's backlog
   queue, so the client can start writing before the server accepts —
   exactly the buffering a real SYN/accept queue provides. accept()
   merely adopts the server side of an already-established pair. *)

type conn = {
  c2s : Pipe.t;  (* client writes here, server reads *)
  s2c : Pipe.t;  (* server writes here, client reads *)
}

type role = Client | Server

type state =
  | Fresh
  | Bound of int
  | Listening of {
      port : int;
      backlog : int;
      pending : conn Queue.t;
      accept_waiters : Waitq.t;
      poll_waiters : Waitq.t;
    }
  | Connected of { conn : conn; role : role }
  | Closed

type t = { mutable state : state }

let create () = { state = Fresh }
let state t = t.state

(* Like Linux's [inet_bind], a socket binds once: its own state is
   checked before the port. *)
let bind t port ~in_use =
  match t.state with
  | Fresh when in_use -> Error Errno.EADDRINUSE
  | Fresh ->
    t.state <- Bound port;
    Ok ()
  | Bound _ | Listening _ | Connected _ | Closed -> Error Errno.EINVAL

let listen t backlog =
  if backlog < 1 then Error Errno.EINVAL
  else
    match t.state with
    | Bound port ->
      t.state <-
        Listening
          {
            port;
            backlog;
            pending = Queue.create ();
            accept_waiters = Waitq.create ~exclusive:true;
            poll_waiters = Waitq.create ~exclusive:false;
          };
      Ok ()
    | Fresh | Listening _ | Connected _ | Closed -> Error Errno.EINVAL

(* Establish a connection against listener [srv], transitioning client
   socket [t] to [Connected]. All four pipe-end counts are attached here
   — both the client's ends and the server side that will sit in the
   accept queue — so neither direction sees a premature EOF between
   connect and accept. Backlog overflow is refused outright
   (ECONNREFUSED), never blocked: deterministic, and it matches a
   listener whose SYN queue is full with syncookies off. A queued
   connection wakes the listener's parked accepts and polls. *)
let connect t ~srv =
  match (t.state, srv.state) with
  | Fresh, Listening { backlog; pending; accept_waiters; poll_waiters; _ } ->
    if Queue.length pending >= backlog then Error Errno.ECONNREFUSED
    else begin
      let conn = { c2s = Pipe.create (); s2c = Pipe.create () } in
      Pipe.add_writer conn.c2s;
      Pipe.add_reader conn.c2s;
      Pipe.add_writer conn.s2c;
      Pipe.add_reader conn.s2c;
      Queue.add conn pending;
      t.state <- Connected { conn; role = Client };
      Waitq.kick accept_waiters;
      Waitq.kick poll_waiters;
      Ok ()
    end
  | Fresh, _ -> Error Errno.ECONNREFUSED
  | (Bound _ | Listening _ | Connected _ | Closed), _ -> Error Errno.EINVAL

let backlog_depth t =
  match t.state with
  | Listening { pending; _ } -> Some (Queue.length pending)
  | Fresh | Bound _ | Connected _ | Closed -> None

(* Take the oldest established connection off the accept queue and wrap
   it in a fresh server-role socket. The server-side pipe-end counts
   were attached at connect time; the accepted socket adopts them. *)
let accept t =
  match t.state with
  | Listening { pending; _ } -> (
    match Queue.take_opt pending with
    | None -> None
    | Some conn -> Some { state = Connected { conn; role = Server } })
  | Fresh | Bound _ | Connected _ | Closed -> None

let read_pipe conn = function Client -> conn.s2c | Server -> conn.c2s
let write_pipe conn = function Client -> conn.c2s | Server -> conn.s2c

(* Drop one endpoint's pipe-end counts: its read end loses a reader (the
   peer's writes start failing EPIPE once no reader remains) and its
   write end loses a writer (the peer reads drain to EOF). *)
let release_endpoint conn role =
  Pipe.drop_reader (read_pipe conn role);
  Pipe.drop_writer (write_pipe conn role)

(* Final close from the OFD layer. A dying listener drains its accept
   queue, releasing the queued server endpoints so their clients observe
   EOF/EPIPE — connections refused by teardown, not leaked — and wakes
   its parked accepts (they fail) and polls (they see an error). *)
let release t =
  (match t.state with
  | Fresh | Bound _ | Closed -> ()
  | Listening { pending; accept_waiters; poll_waiters; _ } ->
    Queue.iter (fun conn -> release_endpoint conn Server) pending;
    Queue.clear pending;
    Waitq.kick accept_waiters;
    Waitq.kick poll_waiters
  | Connected { conn; role } -> release_endpoint conn role);
  t.state <- Closed
