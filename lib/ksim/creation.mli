(** Process creation: fork, vfork, posix_spawn, exec, the process
    builder and zygote templates. They share the image loader, the
    blame-ledger plumbing that bills each creation event, and one PCB
    constructor, which draws the pid, installs the signal state, enters
    the pid table under the parent and starts the main thread. Owns the
    machine's pid counter and templates, and the inheritance rules of
    every creation style. *)

val image_base : int
(** The fixed address an image's text is mapped at. *)

val spawn_init : Machine.t -> ?argv:string list -> string -> (Types.pid, Errno.t) result
(** The initial process, with fds 0-2 on the console and no parent. *)

(** {1 Syscalls} *)

val fork :
  Machine.t -> Proc.t -> Proc.thread -> (unit -> unit) ->
  (Types.pid, Errno.t) result Machine.action

val fork_eager :
  Machine.t -> Proc.t -> Proc.thread -> (unit -> unit) ->
  (Types.pid, Errno.t) result Machine.action

val vfork :
  Machine.t -> Proc.t -> Proc.thread -> (unit -> unit) ->
  (Types.pid, Errno.t) result Machine.action

val spawn :
  Machine.t -> Proc.t -> Proc.thread -> Types.spawn_req ->
  (Types.pid, Errno.t) result Machine.action

val exec :
  Machine.t -> Proc.t -> Proc.thread -> string -> string list ->
  (unit, Errno.t) result Machine.action

val pb_create : Machine.t -> Proc.t -> Proc.thread -> (Types.pid, Errno.t) result Machine.action

val pb_map :
  Machine.t -> Proc.t -> pid:Types.pid -> len:int -> perm:Vmem.Perm.t ->
  (int, Errno.t) result Machine.action

val pb_write :
  Machine.t -> Proc.t -> pid:Types.pid -> addr:int -> data:string ->
  (unit, Errno.t) result Machine.action

val pb_copy_fd :
  Machine.t -> Proc.t -> pid:Types.pid -> src:Types.fd -> dst:Types.fd ->
  (unit, Errno.t) result Machine.action

val pb_start :
  Machine.t -> Proc.t -> pid:Types.pid -> path:string -> argv:string list ->
  (unit, Errno.t) result Machine.action

val template_freeze :
  Machine.t -> Proc.t -> Types.pid option -> (int, Errno.t) result Machine.action

val template_spawn :
  Machine.t -> Proc.t -> Proc.thread -> int -> (unit -> unit) ->
  (Types.pid, Errno.t) result Machine.action

val template_discard : Machine.t -> int -> (unit, Errno.t) result Machine.action
