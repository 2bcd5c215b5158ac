(** Simulated stream sockets.

    A connection is a pair of bounded {!Pipe} buffers (one per
    direction) and the "network" is the kernel's port table. The
    handshake completes inside [connect]: a successful connect enqueues
    a fully-wired connection on the listener's backlog queue, so the
    client may write before the server accepts — the buffering a real
    SYN/accept queue provides. [accept] adopts the server half of an
    already-established pair.

    Blocking policy lives in the kernel (like {!Pipe}): this module
    exposes the state the kernel inspects to decide when a thread may
    proceed, and kicks a listener's wait queues when that state
    changes. A connected endpoint's parked reads, writes and polls wait
    on its two pipes. *)

type conn = { c2s : Pipe.t; s2c : Pipe.t }
type role = Client | Server

type state =
  | Fresh  (** socket() has run, nothing else *)
  | Bound of int  (** bound to a port *)
  | Listening of {
      port : int;
      backlog : int;
      pending : conn Queue.t;
      accept_waiters : Waitq.t;
          (** parked accepts (exclusive); kicked by {!connect} and
              {!release} *)
      poll_waiters : Waitq.t;  (** parked polls (shared); the same kicks *)
    }
  | Connected of { conn : conn; role : role }
  | Closed  (** released by the final OFD close *)

type t

val create : unit -> t
val state : t -> state

val bind : t -> int -> in_use:bool -> (unit, Errno.t) result
(** [EINVAL] unless the socket is fresh, checked first; then
    [EADDRINUSE] when [in_use], which {!Sockets} reads from the port
    table it owns: another live socket holds the port. *)

val listen : t -> int -> (unit, Errno.t) result
(** [listen t backlog]; [EINVAL] unless bound, or if [backlog < 1]. *)

val connect : t -> srv:t -> (unit, Errno.t) result
(** Connect fresh socket [t] to listener [srv]. A full backlog — or
    [srv] not listening (e.g. already closed) — refuses the connection
    with [ECONNREFUSED]; overflow never blocks, which keeps the
    simulation deterministic and matches a full SYN queue with
    syncookies off. On success all four pipe-end counts are attached, so
    neither direction sees premature EOF between connect and accept,
    and the listener's parked accepts and polls are woken. *)

val accept : t -> t option
(** Pop the oldest pending connection as a server-role socket; [None] if
    the queue is empty or [t] is not listening (the kernel blocks or
    fails accordingly). *)

val backlog_depth : t -> int option
(** Current accept-queue length of a listener. *)

val read_pipe : conn -> role -> Pipe.t
val write_pipe : conn -> role -> Pipe.t
(** Which pipe this endpoint reads/writes: a client reads [s2c] and
    writes [c2s]; a server the reverse. *)

val release : t -> unit
(** Final-close hook (called by {!Ofd.close} when the last reference
    drops): releases this endpoint's pipe ends — or, for a listener,
    every endpoint still in the accept queue, so queued clients observe
    EOF/EPIPE, and its parked accepts and polls — and moves the socket
    to [Closed]. *)
