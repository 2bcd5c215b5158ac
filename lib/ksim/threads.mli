(** Threads and process-local mutexes: thread creation and placement on
    the run queues, and the mutex syscalls. Owns the machine's tid
    counter and placement cursor, and each process's mutex table. *)

val new_thread : Machine.t -> Proc.t -> is_main:bool -> (unit -> unit) -> Proc.thread
(** Start a thread of the process: draw its tid, place it round-robin on
    a CPU and queue it there. *)

(** {1 Syscalls} *)

val gettid : Proc.thread -> Types.tid Machine.action
val yield : unit -> unit Machine.action
val thread_create : Machine.t -> Proc.t -> (unit -> unit) -> (Types.tid, Errno.t) result Machine.action
val mutex_create : Proc.t -> int Machine.action
val mutex_lock : Proc.t -> Proc.thread -> int -> (unit, Errno.t) result Machine.action
val mutex_unlock : Proc.t -> Proc.thread -> int -> (unit, Errno.t) result Machine.action
val mutex_trylock : Proc.t -> Proc.thread -> int -> (unit, Errno.t) result Machine.action
val mutex_reinit : Proc.t -> int -> (unit, Errno.t) result Machine.action
