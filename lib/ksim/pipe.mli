(** Anonymous pipe state: the byte channel, and the queues a parked
    read, write or poll waits on. The kernel decides from this state
    whether a thread may proceed; every change here that can let a
    parked syscall proceed kicks the matching queue. *)

type t

val create : ?capacity:int -> unit -> t
(** Default capacity 65536 bytes. @raise Invalid_argument if
    [capacity <= 0]. *)

val available : t -> int
(** Bytes buffered and ready to read. *)

val space : t -> int
(** Bytes that can be written without exceeding capacity. *)

val read_waiters : t -> Waitq.t
(** Parked reads (exclusive); kicked by {!write} and {!drop_writer}. *)

val write_waiters : t -> Waitq.t
(** Parked writes (exclusive); kicked by {!read} and {!drop_reader}. *)

val poll_waiters : t -> Waitq.t
(** Parked polls on either end (shared); kicked by all four. *)

val add_reader : t -> unit
val add_writer : t -> unit

val drop_reader : t -> unit
(** The last drop wakes the parked writes: they break. *)

val drop_writer : t -> unit
(** The last drop wakes the parked reads: they see EOF. *)

val write : t -> string -> int
(** Append at most [space t] bytes; returns how many were taken. *)

val read : t -> int -> string
(** Take up to [n] buffered bytes (possibly [""]). *)

val eof : t -> bool
(** No data buffered and no writer remains. *)

val broken : t -> bool
(** No reader remains (writes must fail with EPIPE/SIGPIPE). *)
