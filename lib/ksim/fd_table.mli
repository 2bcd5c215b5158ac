(** Per-process file-descriptor tables.

    Slots reference shared {!Ofd} descriptions; the close-on-exec flag is
    per-slot, per POSIX. {!clone} implements the fork/spawn inheritance
    rule (descriptions shared, flags copied).

    A table holds slots only up to one past its highest open fd: the
    slot array starts empty and doubles (from 8) toward [max_fds] as
    fds are installed higher, as Linux's [expand_files] grows an
    [fdtable]. {!clone}, {!count}, {!close_cloexec}, {!close_all} and
    {!iter} visit only those slots, so their host cost follows the fds
    a process has open, not its limit. The limit still bounds every
    fd: numbering, EMFILE and EBADF are those of a flat [max_fds]
    array. *)

type t

val create : ?max_fds:int -> unit -> t
(** Default limit 256 descriptors. Allocates no slots. *)

val count : t -> int
(** Open fds. *)

val alloc : t -> ?at_least:int -> cloexec:bool -> Ofd.t -> (Types.fd, Errno.t) result
(** Install an already-referenced description in the lowest free slot
    ([>= at_least], default 0). Takes ownership of one reference. EMFILE
    when full. *)

val get : t -> Types.fd -> (Ofd.t, Errno.t) result
val cloexec : t -> Types.fd -> (bool, Errno.t) result
val set_cloexec : t -> Types.fd -> bool -> (unit, Errno.t) result
val close : t -> Types.fd -> (unit, Errno.t) result

val dup : t -> Types.fd -> (Types.fd, Errno.t) result
(** Lowest free fd; the new slot clears close-on-exec (POSIX). *)

val dup2 : t -> src:Types.fd -> dst:Types.fd -> (Types.fd, Errno.t) result
(** Silently closes [dst] first; [src = dst] is a no-op returning [dst].
    Any [dst] below the limit is valid, however far past the highest
    open fd (the table grows to it); EBADF outside [0, max_fds). *)

val clone : t -> t
(** fork-style duplicate: every slot shares the description (refcount
    bumped) and copies its cloexec flag. The copy's slot array is sized
    to the source's highest open fd, not to the source's array. *)

val close_cloexec : t -> unit
(** exec: close every slot marked close-on-exec. *)

val close_all : t -> unit
(** Process teardown. *)

val iter : t -> (Types.fd -> Ofd.t -> cloexec:bool -> unit) -> unit
(** Open fds in ascending order. *)
