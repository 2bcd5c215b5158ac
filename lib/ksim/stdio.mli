(** Userland buffered I/O whose buffer lives in {e simulated} memory.

    This is the piece that makes the paper's "fork doesn't compose with
    buffered I/O" claim measurable: because the buffer is ordinary
    process memory, fork's COW copy duplicates any unflushed bytes, and
    when parent and child both flush (or exit), the output appears twice.
    A spawn-based child has a fresh image and cannot replay the parent's
    buffer.

    All functions must run inside a simulated program. *)

type t

val fopen : ?bufsize:int -> Types.fd -> (t, Errno.t) result
(** Wrap a descriptor with a write buffer of [bufsize] bytes (default
    4096, one page), allocated with mmap in the calling process. *)

val puts : t -> string -> (unit, Errno.t) result
(** Append to the buffer, flushing whenever it fills. *)

val flush : t -> (unit, Errno.t) result
(** Write out and clear the buffer. Also reports the flush to the
    kernel's {!Kstat} meter: bytes buffered by a different process (the
    fork-duplicated case) are counted as double-flushed. *)
