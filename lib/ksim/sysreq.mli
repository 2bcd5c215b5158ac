(** The simulated syscall interface.

    ['a t] is a request whose reply has type ['a]; simulated programs
    perform the {!Sys} effect and the kernel's scheduler handles it.

    {b Fork and closures.} Real fork "returns twice"; an in-process
    simulator cannot duplicate an OCaml continuation (they are one-shot),
    so [Fork]/[Vfork] take the child's continuation as an explicit
    closure and return the child pid to the parent. Everything the
    {e kernel} duplicates on fork — address space (COW), fd table,
    signal state, mutex memory — is modelled faithfully; only the
    user-level program counter is passed explicitly. DESIGN.md records
    this substitution. *)

type 'a t =
  | Getpid : Types.pid t
  | Getppid : Types.pid t
  | Gettid : Types.tid t
  | Fork : (unit -> unit) -> (Types.pid, Errno.t) result t
      (** COW fork; the closure is the child's sole thread. *)
  | Fork_eager : (unit -> unit) -> (Types.pid, Errno.t) result t
      (** Ablation: eager-copy fork (no COW). *)
  | Vfork : (unit -> unit) -> (Types.pid, Errno.t) result t
      (** Child borrows the parent's address space; the parent blocks
          until the child execs or exits. *)
  | Spawn : Types.spawn_req -> (Types.pid, Errno.t) result t
      (** posix_spawn: fresh process, no address-space copy. *)
  | Exec : { path : string; argv : string list } -> (unit, Errno.t) result t
      (** Replaces the calling process image; returns only on error. *)
  | Exit : int -> unit t  (** Never returns. *)
  | Waitpid : Types.wait_target -> (Types.pid * Types.status, Errno.t) result t
  | Kill : Types.pid * Usignal.t -> (unit, Errno.t) result t
  | Sigaction :
      Usignal.t * Usignal.disposition
      -> (Usignal.disposition, Errno.t) result t
      (** Returns the previous disposition. *)
  | Sigprocmask : Types.mask_op * Usignal.Set.t -> Usignal.Set.t t
      (** Returns the previous mask. *)
  | Alarm : int -> int t
      (** Schedule SIGALRM after n clock ticks (0 cancels); returns
          ticks remaining on the previous alarm. *)
  | Open : string * Types.open_flags -> (Types.fd, Errno.t) result t
  | Close : Types.fd -> (unit, Errno.t) result t
  | Read : Types.fd * int -> (string, Errno.t) result t
      (** [""] is end-of-file. Blocks on an empty pipe with writers. *)
  | Write : Types.fd * string -> (int, Errno.t) result t
      (** Blocks on a full pipe; EPIPE (+SIGPIPE) on a broken one. *)
  | Dup : Types.fd -> (Types.fd, Errno.t) result t
  | Dup2 : { src : Types.fd; dst : Types.fd } -> (Types.fd, Errno.t) result t
  | Set_cloexec : Types.fd * bool -> (unit, Errno.t) result t
  | Pipe : (Types.fd * Types.fd, Errno.t) result t
  | Try_lock : Types.fd -> (unit, Errno.t) result t
      (** fcntl-style advisory lock: owned by the process, NOT inherited
          by fork children. EAGAIN if held by another process. *)
  | Unlock : Types.fd -> (unit, Errno.t) result t
  | Mmap : { len : int; perm : Vmem.Perm.t } -> (int, Errno.t) result t
  | Munmap : { addr : int; len : int } -> (unit, Errno.t) result t
  | Brk : int option -> (int, Errno.t) result t
      (** [None] queries the current break. *)
  | Mem_read : { addr : int; len : int } -> (string, Errno.t) result t
      (** A load from simulated memory (not a real syscall: charges fault
          costs only). *)
  | Mem_write : { addr : int; data : string } -> (unit, Errno.t) result t
  | Touch : { addr : int; len : int } -> (int, Errno.t) result t
      (** Write-touch every page of the range without materialising
          contents (a memset stand-in); returns pages touched. *)
  | Thread_create : (unit -> unit) -> (Types.tid, Errno.t) result t
  | Mutex_create : int t
  | Mutex_lock : int -> (unit, Errno.t) result t
  | Mutex_unlock : int -> (unit, Errno.t) result t
  | Mutex_trylock : int -> (unit, Errno.t) result t  (** EAGAIN if held *)
  | Mutex_reinit : int -> (unit, Errno.t) result t
      (** Re-initialize to unlocked regardless of owner — what atfork
          child handlers do to recover locks orphaned by fork. *)
  | Yield : unit t
  | Handled_signals : string -> int t
      (** How many times the named handler ran (test observability). *)
  | Chdir : string -> (unit, Errno.t) result t
      (** The working directory is inherited by fork AND spawn children
          (spawn attrs could override; ours keep it simple). *)
  | Getcwd : string t
  | Atfork_register : Types.atfork -> unit t
      (** pthread_atfork: append a handler triple. Handlers are stored in
          the PCB (image state): copied by fork, destroyed by exec. The
          run-the-handlers protocol lives in {!Api.fork}, like libc. *)
  | Atfork_list : Types.atfork list t
      (** Registration order. *)
  | Pb_create : (Types.pid, Errno.t) result t
      (** Cross-process operations (the paper's §6 proposal, as in ExOS /
          Fuchsia's process_builder): create an {e embryo} child — a
          process with an empty address space and fd table and no
          threads — to be populated piecewise by the parent. *)
  | Pb_map :
      { pid : Types.pid; len : int; perm : Vmem.Perm.t }
      -> (int, Errno.t) result t
      (** Map anonymous memory {e in the embryo child}; returns the
          child-relative address. *)
  | Pb_write :
      { pid : Types.pid; addr : int; data : string }
      -> (unit, Errno.t) result t
      (** Write into the embryo child's memory. *)
  | Pb_copy_fd :
      { pid : Types.pid; src : Types.fd; dst : Types.fd }
      -> (unit, Errno.t) result t
      (** Install a copy of the parent's [src] descriptor at [dst] in the
          embryo child. *)
  | Pb_start :
      { pid : Types.pid; path : string; argv : string list }
      -> (unit, Errno.t) result t
      (** Load a program image into the embryo and start its main
          thread. After this the child is an ordinary process. *)
  | Stdio_flushed : { bytes : int; inherited : int } -> unit t
      (** Accounting-only request posted by {!Stdio.flush}: [bytes]
          written out, of which [inherited] were buffered by a different
          process (fork-duplicated output). Feeds {!Kstat}; charges no
          cycles and is not traced, so instrumented runs cost the same
          as bare ones. *)
  | Template_freeze : { pid : Types.pid option } -> (int, Errno.t) result t
      (** Seal a warmed process into an immutable zygote template:
          [None] freezes the caller, [Some pid] an alive child of the
          caller. One fork-priced pass downgrades the image to read-only
          COW and pins its frames immortal; the source keeps running
          (later writes COW away from the template). Returns the
          template id. EBUSY unless the source is the sole owner of
          every resident frame; EINVAL mid-vfork; ESRCH/EPERM on a bad
          target. *)
  | Template_spawn :
      { tpl : int; body : unit -> unit }
      -> (Types.pid, Errno.t) result t
      (** Create a child from a template in O(shared subtrees): commit
          charge first (the only fallible step — failure leaves the
          template untouched), then share the sealed page table by
          bumping its root. The child starts at [body] with the
          template's captured image (fds, signal state, cwd, program).
          EINVAL on an unknown template id. *)
  | Template_discard : int -> (unit, Errno.t) result t
      (** Drop a template, un-pinning and freeing its pages. EBUSY while
          any live process still depends on it; EINVAL on an unknown
          id. *)
  | Socket : (Types.fd, Errno.t) result t
      (** Fresh stream socket (see {!Socket}): EMFILE when the fd table
          is full. *)
  | Bind : Types.fd * int -> (unit, Errno.t) result t
      (** Bind to a port on the simulated host. EINVAL if the socket is
          not fresh (it is already bound or listening), checked first;
          EADDRINUSE if another live socket holds the port. *)
  | Listen : { fd : Types.fd; backlog : int } -> (unit, Errno.t) result t
      (** EINVAL unless bound, or if [backlog < 1]. *)
  | Accept : Types.fd -> (Types.fd, Errno.t) result t
      (** Pop the oldest established connection as a new connected fd;
          blocks while the accept queue is empty. EINVAL on a
          non-listening socket. *)
  | Connect : Types.fd * int -> (unit, Errno.t) result t
      (** Connect a fresh socket to a listening port. The handshake
          completes here (the connection joins the listener's accept
          queue); ECONNREFUSED when no live listener holds the port
          {e or} its backlog is full — overflow refuses, never blocks
          (documented in DESIGN.md §16). *)
  | Poll :
      { interests : Types.poll_interest list; timeout : int }
      -> (Types.poll_revent list, Errno.t) result t
      (** Readiness multiplexing over pipe and socket fds. [timeout] is
          in clock ticks: [0] polls and returns immediately (possibly
          [[]]), negative blocks until some fd is ready, positive blocks
          at most that many ticks ([[]] on timeout). EBADF if any
          polled fd is unknown. *)

type _ Effect.t += Sys : 'a t -> 'a Effect.t

(** {2 Descriptors}

    Everything the kernel needs to know about a syscall besides its
    handler, written once per constructor. *)

(** The shape of a syscall's reply. *)
type _ reply =
  | Fallible : Errno.t list -> ('a, Errno.t) result reply
      (** The reply is a result; the list holds the specific errnos the
          handler can produce. Its errno domain is that list plus the
          transients a fault schedule can inject ({!Fault.injectable}). *)
  | Total : 'a reply  (** The reply carries no errno. *)

(** What dispatch charges for a request. *)
type cost =
  | Syscall  (** a real syscall: pays the kernel-entry base cost *)
  | Memory
      (** a load, store or touch: pays only the fault costs it incurs *)
  | Accounting
      (** bookkeeping only: never charged, traced, counted or
          fault-injected, so instrumented runs cost the same as bare
          ones *)

type 'a info = {
  idx : int;
      (** declaration position: the syscall's slot in {!Kstat}'s
          per-kind counts, below {!nkinds} *)
  name : string;
      (** e.g. ["fork"]: the name in traces, {!Kstat} and fault
          triggers *)
  reply : 'a reply;
  cost : cost;
}

val info : 'a t -> 'a info
(** The descriptor of a request's syscall. Allocates nothing. *)

val nkinds : int
(** The number of syscall kinds, one per constructor of {!t}: every
    [idx] lies in [0, nkinds). *)

val admits : 'a info -> Errno.t -> bool
(** Whether the errno lies in the syscall's errno domain. Always
    [false] for a {!Total} syscall. The kernel raises
    [Invalid_argument] on any reply outside the domain. *)
