(** POSIX-style error codes returned by simulated syscalls. *)

type t =
  | EPERM
  | ENOENT
  | ESRCH
  | EINTR
  | EBADF
  | ECHILD
  | EAGAIN
  | ENOMEM
  | EACCES
  | EFAULT
  | EEXIST
  | ENOTDIR
  | EISDIR
  | EINVAL
  | EMFILE
  | ENOSPC
  | EPIPE
  | ENOSYS
  | ENOEXEC
  | EDEADLK
  | E2BIG
  | EBUSY
  | EADDRINUSE
  | ECONNREFUSED

val all : t list
(** Every constructor, in declaration order. *)

val to_string : t -> string

val of_string : string -> t option
(** Inverse of {!to_string}; [None] for unknown names. *)

val equal : t -> t -> bool
val pp : Format.formatter -> t -> unit
