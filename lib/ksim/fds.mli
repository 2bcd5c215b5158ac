(** File descriptors, pipes, advisory file locks and the working
    directory: the syscalls over a process's fd table and cwd, and the
    descriptions they open. Owns each process's [fdt], [cwd] and
    [held_locks]. *)

val console_ofd : Machine.t -> Ofd.t
(** A fresh read-write description of /dev/console. *)

val open_ofd :
  Machine.t -> Proc.t -> string -> Types.open_flags -> (Ofd.t, Errno.t) result
(** Open (or create) a path relative to the process's cwd, without
    giving it an fd. *)

val install_fd : Proc.t -> cloexec:bool -> Ofd.t -> (Types.fd, Errno.t) result
(** Give a description the lowest free fd, or close it when the table is
    full. *)

(** {1 Syscalls} *)

val openf :
  Machine.t -> Proc.t -> string -> Types.open_flags ->
  (Types.fd, Errno.t) result Machine.action

val close : Proc.t -> Types.fd -> (unit, Errno.t) result Machine.action
val read : Proc.t -> Types.fd -> int -> (string, Errno.t) result Machine.action

val write :
  Machine.t -> Proc.t -> Types.fd -> string -> (int, Errno.t) result Machine.action
(** A write to a pipe with no reader left posts SIGPIPE and fails
    [EPIPE]. *)

val dup : Proc.t -> Types.fd -> (Types.fd, Errno.t) result Machine.action

val dup2 :
  Proc.t -> src:Types.fd -> dst:Types.fd -> (Types.fd, Errno.t) result Machine.action

val set_cloexec : Proc.t -> Types.fd -> bool -> (unit, Errno.t) result Machine.action
val pipe : Proc.t -> (Types.fd * Types.fd, Errno.t) result Machine.action
val try_lock : Proc.t -> Types.fd -> (unit, Errno.t) result Machine.action
val unlock : Proc.t -> Types.fd -> (unit, Errno.t) result Machine.action
val chdir : Machine.t -> Proc.t -> string -> (unit, Errno.t) result Machine.action
val getcwd : Proc.t -> string Machine.action

val stdio_flushed :
  Machine.t -> bytes:int -> inherited:int -> unit Machine.action
