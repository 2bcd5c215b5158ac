(** Process control blocks and threads.

    The PCB enumerates exactly the state fork must reason about — address
    space, fd table, signal state, mutex memory, alarms, file locks —
    which is the paper's "fork infects every subsystem" point made
    concrete: every field below carries a fork-specific rule (copied,
    shared, cleared or dropped), implemented in {!Creation}. *)

type pending =
  | Pending :
      'a Sysreq.t * ('a, unit) Effect.Deep.continuation
      -> pending

type thread_state =
  | Ready
  | Running
  | Blocked
      (** parked in a syscall whose check said "not yet"; its waiter
          ([wait]) holds the request, which names the wait *)
  | Exited

type entry = Start of (unit -> unit) | Resume of (unit -> unit)

type thread = {
  tid : Types.tid;
  owner : Types.pid;
  is_main : bool;  (** its return terminates the whole process *)
  mutable tstate : thread_state;
  mutable entry : entry option;  (** what to run when next scheduled *)
  mutable pending : pending option;  (** set while suspended in a syscall *)
  mutable cpu : int;
      (** simulated CPU this thread last ran on (its affinity home in
          the SMP scheduler); always 0 on a single-CPU machine *)
  mutable wait : Waitq.waiter option;  (** its parked syscall, if any *)
}

type state = Alive | Zombie of Types.status | Reaped of Types.status

type t = {
  pid : Types.pid;
  mutable parent : Types.pid;
  mutable pstate : state;
  mutable aspace : Vmem.Addr_space.t;
  mutable vfork_active : bool;
      (** true while this process borrows its parent's address space *)
  mutable fdt : Fd_table.t;
  sigdisp : Usignal.disposition array;  (** indexed by signal number *)
  mutable sigmask : Usignal.Set.t;
  mutable sigpending : Usignal.Set.t;
  handler_runs : (string, int) Hashtbl.t;
  mutable cwd : string;
  mutable mutexes : Sync.table;
  mutable threads : thread list;  (** newest first *)
  mutable live : int;  (** threads not yet exited *)
  mutable children : Types.pid list;
  mutable program : string;
  mutable held_locks : Vfs.regular list;
  mutable atfork : Types.atfork list;  (** registration order *)
  mutable tpl_deps : int list;
      (** template ids whose pages this process's address space may map:
          set at zygote spawn, inherited across fork, released when the
          address space is destroyed. Gates template discard (EBUSY). *)
  waitpid_waiters : Waitq.t;
      (** this process's parked waitpids (shared); kicked by
          {!child_exited}, {!reap} and {!adopt_orphan} *)
  vfork_waiters : Waitq.t;
      (** the parent's parked vfork, while this process borrows its
          address space; kicked by {!release_vfork} *)
}

val make_thread :
  tid:Types.tid -> owner:Types.pid -> is_main:bool -> (unit -> unit) -> thread

val make :
  pid:Types.pid ->
  parent:Types.pid ->
  aspace:Vmem.Addr_space.t ->
  fdt:Fd_table.t ->
  cwd:string ->
  program:string ->
  t
(** Fresh PCB: default dispositions, empty mask/pending, fresh mutex
    table, no threads. *)

val disposition : t -> Usignal.t -> Usignal.disposition
val set_disposition : t -> Usignal.t -> Usignal.disposition -> unit
val is_alive : t -> bool

val child_exited : t -> unit
(** A child of this process became a zombie. *)

val reap : t -> t -> Types.status -> unit
(** [reap t child st]: a waitpid of [t] took [child]'s status. *)

val adopt_orphan : t -> Types.pid -> unit
(** Init takes over a dead process's child, which may be a zombie. *)

val release_vfork : t -> unit
(** A vfork child gives its parent's address space back (exec or
    exit). *)

val count_handler_run : t -> string -> unit
val handler_runs : t -> string -> int
