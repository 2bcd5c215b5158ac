(** The simulated kernel: the machine, its scheduler and syscall
    dispatch.

    One {!t} is a machine. Simulated programs are OCaml closures that
    perform {!Sysreq.Sys} effects; the kernel runs them under a
    deterministic cooperative scheduler (threads yield at syscalls) and
    routes each syscall to the module that serves its subsystem
    ({!Lifecycle}, {!Fds}, {!Memory}, {!Threads}, {!Sockets},
    {!Creation}). Determinism: given the same config (including [seed])
    and programs, a run is bit-for-bit reproducible.

    Process-creation semantics, implemented in {!Creation} (the paper's
    subject):
    - [Fork]: COW address-space clone, fd table shared-description clone,
      dispositions copied, pending signals cleared, {e only the calling
      thread} replicated, mutex memory copied verbatim (orphaned locks!),
      alarms not inherited, file locks not inherited.
    - [Vfork]: child borrows the parent's address space; parent blocks
      until the child execs or exits; child stores are visible to the
      parent.
    - [Exec]: fresh image (ASLR-randomised when enabled), caught signals
      reset, close-on-exec fds closed, other threads destroyed, alarms
      and file locks preserved.
    - [Spawn] (posix_spawn): fresh process with no address-space copy;
      fd inheritance + file actions + attributes; errors (e.g. ENOENT)
      are reported synchronously to the caller — the error-reporting
      advantage the paper credits spawn with. *)

type config = Machine.config = {
  phys_pages : int;  (** physical memory size, in 4 KiB frames *)
  cost_params : Vmem.Cost.params option;
      (** override the cycle-cost constants (None = {!Vmem.Cost.default});
          used by cost-model ablations such as the THP experiment *)
  cpus : int;  (** parallelism assumed by the TLB shootdown model *)
  commit_policy : Vmem.Frame.policy;
  aslr : bool;  (** randomise image/stack/mmap placement at exec *)
  seed : int;
  sched : [ `Fifo | `Random ];  (** ready-queue discipline *)
  trace_capacity : int option;  (** [Some n] enables syscall tracing *)
  max_fds : int;
  fault : Fault.spec option;
      (** [Some spec] arms deterministic fault injection: frame
          allocations, commit charges and fallible syscall replies fail
          according to the schedule (see {!Fault}). Injections land in
          {!Kstat} and, when tracing, in the End event's typed
          [injected] field ({!Trace.injected}). *)
  smp : bool;
      (** [true] turns [cpus] into real simulated CPUs: per-CPU run
          queues with affinity + work stealing, per-address-space CPU
          masks, and tracked TLB shootdowns that IPI only the remote
          CPUs actually caching the space (see {!Vmem.Tlb.ipi}).
          [false] (the default) schedules one CPU and keeps the
          broadcast shootdown model, which [cpus] still sizes —
          bit-identical to every historical BENCH number. With [smp],
          [cpus] must be in 1..{!Vmem.Cpuset.max_cpus}. Every machine
          runs the same scheduling round: one slice per CPU, then the
          round's syscalls are dispatched in ascending CPU order, all in
          the calling domain. *)
  demand_paging : bool;
      (** Install a simulated user-mode pager ({!Pager}) into every
          address space the kernel creates: exec maps image segments as
          lazy PTEs (O(segments), near-constant-time) and zygote spawns
          share the template by reference, with first touches taken as
          major faults that pull pages through the pager at
          ["pager:*"] cost. [false] (the default) keeps every fault
          path — and every historical BENCH number — bit-identical to
          the eager simulator. *)
  pager_readahead : int;
      (** Pages of same-VMA readahead the pager pulls per major fault
          (the E18 batching knob); [0] fetches exactly the faulting
          page. Must be [>= 0]. *)
}

val default_config : config
(** 1 GiB memory, 4 cpus, [Strict] commit, ASLR on, seed 42, FIFO
    scheduling, no tracing, 256 fds, no fault injection,
    SMP off (legacy broadcast-TLB accounting), demand paging off. *)

type t

val create : ?config:config -> unit -> t
val config : t -> config
val register : t -> Program.t -> unit
(** Make a program exec-able under its name. Re-registering replaces. *)

val register_all : t -> Program.t list -> unit
val cost : t -> Vmem.Cost.t
val frames : t -> Vmem.Frame.t
val vfs : t -> Vfs.t
val console : t -> string
(** Everything written to /dev/console so far. *)

val trace : t -> Trace.t option

val kstat : t -> Kstat.t
(** The machine's typed counters; always on (updating them is cheap). *)

val blame : t -> Vmem.Blame.t
(** The cost-attribution ledger; always on. Each creation syscall
    (fork, vfork, spawn, builder, template freeze / zygote spawn) gets a
    ledger event carrying the cycles charged during the syscall (sync)
    and the COW-break cycles its sharing later induced (deferred). *)

val fault : t -> Fault.t option
(** The armed fault injector, for inspecting injection counts. *)

val clock : t -> int

val image_base : int
(** The fixed address exec maps a program's text at (the data segment
    follows immediately; image layout is not ASLR'd). Exposed so
    demand-paging experiments and tests can touch image pages
    directly. *)

val spawn_init : t -> ?argv:string list -> string -> (Types.pid, Errno.t) result
(** Create the initial process from a registered program, fds 0/1/2 on
    the console. Usually pid 1. Does not run it — call {!run}. *)

type stall = { pid : Types.pid; tid : Types.tid; why : string }

type outcome =
  | All_exited
  | Stalled of stall list
      (** threads remain but none can ever run — e.g. the post-fork
          mutex deadlock of experiment E3 *)
  | Tick_limit

val pp_outcome : Format.formatter -> outcome -> unit

val run : ?max_ticks:int -> t -> outcome
(** Schedule until every thread exits, no progress is possible, or
    [max_ticks] (default 10_000_000) slices elapse. Re-entrant: new
    processes may be spawned between runs. *)

val status_of : t -> Types.pid -> Types.status option
(** Exit status of a terminated process, zombie or reaped. *)

val find_proc : t -> Types.pid -> Proc.t option
val procs : t -> Proc.t list

val find_template : t -> int -> Template.t option
(** Look up a live (not yet discarded) zygote template by id. *)

val templates : t -> Template.t list
(** Live templates, sorted by id — accounting introspection for tests
    (pinned-page bookkeeping) and experiments. *)

val boot :
  ?config:config ->
  programs:Program.t list ->
  ?argv:string list ->
  string ->
  (t * outcome, Errno.t) result
(** Convenience: create, register, spawn init from the named program,
    run to completion. *)
