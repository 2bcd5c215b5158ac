(** Process lifecycle and signals: process termination, orphan
    adoption, reaping, signal posting and delivery, and the syscalls of
    process identity, signals, alarms and atfork registration. Owns the
    machine's [alarms] table and each process's signal state. *)

val release_held : Waitq.payload -> unit
(** A parked read or write gives back its own reference to its
    description. *)

val retire_thread : Proc.t -> Proc.thread -> unit
(** End a thread: it leaves the live count, and if it is parked, gives
    back its held description and wakes its waiter so that the next
    visit takes it off its queues. *)

val release_aspace : Machine.t -> Proc.t -> unit
(** Give up the process's address space (exit or exec): hand a vfork
    borrow back to the parent, or release its template deps and destroy
    the space. *)

val post_signal : Machine.t -> Proc.t -> Usignal.t -> unit
(** Deliver a signal, or leave it pending while the mask blocks it. A
    default-action signal that terminates kills the process. *)

val kill_process : Machine.t -> Proc.t -> Types.status -> unit
(** Terminate a live process: retire its threads, close its fds, drop
    its file locks and alarm, release its address space, hand its
    children to init and notify its parent with SIGCHLD. *)

(** {1 Syscalls} *)

val getpid : Proc.t -> Types.pid Machine.action
val getppid : Proc.t -> Types.pid Machine.action
val exit : Machine.t -> Proc.t -> int -> unit Machine.action

val waitpid :
  Machine.t -> Proc.t -> Types.wait_target ->
  (Types.pid * Types.status, Errno.t) result Machine.action

val kill : Machine.t -> Types.pid -> Usignal.t -> (unit, Errno.t) result Machine.action

val sigaction :
  Proc.t -> Usignal.t -> Usignal.disposition ->
  (Usignal.disposition, Errno.t) result Machine.action

val sigprocmask :
  Machine.t -> Proc.t -> Types.mask_op -> Usignal.Set.t -> Usignal.Set.t Machine.action

val alarm : Machine.t -> Proc.t -> int -> int Machine.action
val handled_signals : Proc.t -> string -> int Machine.action
val atfork_register : Proc.t -> Types.atfork -> unit Machine.action
val atfork_list : Proc.t -> Types.atfork list Machine.action
