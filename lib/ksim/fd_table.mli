(** Per-process file-descriptor tables.

    Slots reference shared {!Ofd} descriptions; the close-on-exec flag is
    per-slot, per POSIX. {!clone} implements the fork/spawn inheritance
    rule (descriptions shared, flags copied). *)

type t

val create : ?max_fds:int -> unit -> t
(** Default limit 256 descriptors. *)

val count : t -> int

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
(** Silently closes [dst] first; [src = dst] is a no-op returning [dst]. *)

val clone : t -> t
(** fork-style duplicate: every slot shares the description (refcount
    bumped) and copies its cloexec flag. *)

val close_cloexec : t -> unit
(** exec: close every slot marked close-on-exec. *)

val close_all : t -> unit
(** Process teardown. *)

val iter : t -> (Types.fd -> Ofd.t -> cloexec:bool -> unit) -> unit
