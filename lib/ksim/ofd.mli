(** Open file descriptions.

    One {!t} is the kernel object an fd points at. It is shared — not
    copied — by [dup], [fork] and [posix_spawn] inheritance, so the file
    offset is shared too: the POSIX rule whose interaction with fork the
    paper lists among the API's special cases. Reference counting tracks
    how many fd-table slots point here; the last close releases pipe
    ends. *)

type backing =
  | Reg_file of Vfs.regular
  | Console of Buffer.t
  | Pipe_read of Pipe.t
  | Pipe_write of Pipe.t
  | Null
  | Socket of Socket.t

type t

val make : backing -> flags:Types.open_flags -> t
(** Refcount starts at 1. Pipe-end reader/writer counts are incremented
    here and decremented by the final {!close}. [Socket] backings manage
    their own pipe-end counts ({!Socket.connect} attaches them, the
    final close calls {!Socket.release}). *)

val backing : t -> backing
val offset : t -> int
val refs : t -> int
val incref : t -> unit

val close : t -> unit
(** Drop one reference; the final drop releases the backing (pipe end
    counts). Further I/O on a fully-closed description raises
    [Invalid_argument]. *)

(** Read/write outcomes: [Retry] means the caller (kernel) should block
    the thread and retry when the backing's state changes. *)
type read_outcome = Data of string | End_of_file | Retry | Fail of Errno.t

type write_outcome =
  | Wrote of int
  | Retry_write
  | Broken_pipe  (** no readers left: EPIPE + SIGPIPE *)
  | Fail_write of Errno.t

val read : t -> int -> read_outcome
val write : t -> string -> write_outcome

val source : t -> Pipe.t option
(** The pipe a read of this description takes bytes from: a pipe read
    end's, or a connected socket's incoming direction. A read that got
    [Retry] waits on its {!Pipe.read_waiters}. *)

val sink : t -> Pipe.t option
(** The pipe a write puts bytes into, likewise. *)
