(** Typed kernel counters (the "/proc/stat" of ksim).

    One {!t} per kernel instance holds a global {!counters} record plus
    one per pid. The kernel feeds it from two directions:

    - syscall dispatch calls {!on_syscall} with the request, and
      {!set_current} just before so memory-subsystem work is attributed
      to the calling process; the pid's record is looked up once per
      dispatch, at the first update that needs it;
    - the shared {!Vmem.Cost} meter's observer hook calls {!on_cost}
      with every (category, event count, cycles) charge, which lands in
      [by_cost] and moves the typed counters that mirror a category
      (faults, COW breaks, frames copied, page-table pages copied, TLB
      flushes/shootdowns, ...);
    - {!Stdio} flush accounting arrives via {!on_stdio_flush}.

    Counters are cheap plain ints; reading them never perturbs the
    simulation. *)

type counters = {
  mutable syscalls : int;  (** every dispatched request *)
  by_kind : int array;
      (** syscalls per kind, at the [idx] of each request's
          {!Sysreq.info}. Only the global record counts kinds: a pid's
          record has an empty array. Read it through {!kinds}. *)
  kind_names : string array;
      (** the {!Sysreq.info} [name] of each [by_kind] slot, recorded at
          the slot's first count ([""] before it) *)
  mutable forks : int;  (** fork + fork_eager *)
  mutable vforks : int;
  mutable spawns : int;
  mutable execs : int;
  mutable faults : int;  (** page faults taken ([Fault_base]) *)
  mutable cow_breaks : int;  (** COW write faults, copy or in-place *)
  mutable cow_reuses : int;  (** COW breaks resolved without a copy *)
  mutable frames_copied : int;  (** COW-break + eager-fork frame copies *)
  mutable frames_zeroed : int;  (** demand zero-fills *)
  mutable pt_pages_copied : int;  (** page-table pages copied by fork *)
  mutable ptes_copied : int;  (** present PTEs visited by fork *)
  mutable tlb_flushes : int;  (** local full flushes *)
  mutable tlb_shootdowns : int;
      (** remote-flush events (tracked-TLB mode: individual IPIs) *)
  mutable tlb_invlpgs : int;  (** single-page invalidations *)
  mutable ipis_sent : int;  (** tracked-TLB shootdown IPIs sent *)
  mutable ipis_received : int;  (** ... and received (equal in total) *)
  mutable cpu_migrations : int;
      (** threads moved to another CPU (each steal moves one) *)
  mutable cpu_steals : int;  (** scheduler work-steal events *)
  mutable stdio_flushed_bytes : int;  (** bytes written by Stdio.flush *)
  mutable stdio_double_flushed_bytes : int;
      (** flushed bytes that were buffered by a {e different} process —
          the paper's duplicated-output hazard, quantified *)
  mutable inj_frame_allocs : int;  (** injected frame-allocation failures *)
  mutable inj_commits : int;  (** injected commit-charge failures *)
  mutable inj_syscalls : int;  (** injected syscall-reply errnos *)
  mutable inj_pager_fetches : int;  (** injected pager-pull denials *)
  mutable major_faults : int;
      (** first-touch faults served by the pager ([Pager_request]) *)
  mutable minor_faults : int;
      (** demand-zero fills + COW breaks — faults needing no pager *)
  mutable pages_fetched : int;  (** pages the pager pulled (readahead incl.) *)
  mutable readahead_hits : int;
      (** first accesses landing on a readahead-prefetched page *)
  mutable oom_kills : int;
      (** processes killed by the [Demand]-policy OOM chooser; the
          {e per-pid} value marks the victims *)
  mutable tpl_freezes : int;  (** templates frozen *)
  mutable tpl_spawns : int;  (** zygote spawns *)
  mutable tpl_subtrees_shared : int;
      (** page-table subtrees shared across all zygote spawns — the
          O(shared subtrees) work the flat-latency claim rests on *)
  mutable tpl_pages_shared : int;
      (** template pages inherited without per-page work *)
  mutable sock_connects : int;  (** connect() attempts (incl. refused) *)
  mutable sock_refused : int;  (** connects refused (no listener/backlog) *)
  mutable sock_accepts : int;
      (** connections accepted. The {e per-pid} values are the
          dispatch-imbalance axis: with per-worker accept, whichever
          worker wakes first wins the connection. *)
  mutable accept_queue_peak : int;  (** deepest accept queue observed *)
  mutable poll_wakeups : int;  (** poll() returns, ready or timed out *)
  mutable poll_timeouts : int;  (** poll() returns with nothing ready *)
  by_cost : Vmem.Cost.t;
      (** every cycle attributed here, by category: the per-pid copy of
          the kernel's meter. Not part of {!snapshot}. *)
}

type smp = {
  smp_cpus : int;
  sent : int array;  (** IPIs sent, by source CPU *)
  received : int array;  (** IPIs received, by interrupted CPU *)
  steals : int array;  (** work-steals, by the stealing CPU *)
  migrations : int array;  (** cross-CPU thread migrations, by new CPU *)
  fanout : (int, int ref) Hashtbl.t;
      (** full-AS shootdowns by remote-CPU count k — the histogram of
          how many CPUs each fork/munmap/mprotect had to interrupt *)
}
(** The per-CPU dimension, present only on SMP machines: where the
    per-pid tables answer "who paid", these arrays answer "on which
    CPU". *)

type t

val create : unit -> t
val global : t -> counters

val enable_smp : t -> cpus:int -> unit
(** Allocate the per-CPU dimension. Done once by the SMP kernel at boot;
    single-CPU machines never call it, so their snapshots (and BENCH
    counters) are unchanged. @raise Invalid_argument if [cpus < 1]. *)

val smp : t -> smp option

val set_current : t -> Types.pid option -> unit
(** Attribute subsequent updates to this pid (as well as globally). The
    pid's record is made, or found, at the first update after this
    call, so a pid none of whose updates arrive gets no record. *)

val pid_counters : t -> Types.pid -> counters option
(** [None] when the pid never had anything attributed to it. *)

val pids : t -> Types.pid list
(** Sorted pids with per-pid counters. *)

val on_syscall : t -> 'a Sysreq.t -> unit
(** Count one dispatched request: [syscalls] and, for a creation or
    exec, the typed counter its constructor names, globally and for the
    current pid; and its kind, in the global [by_kind] slot of its
    {!Sysreq.info} [idx]. *)

val on_cost : t -> Vmem.Cost.cat -> n:int -> float -> unit
(** Shaped to plug directly into {!Vmem.Cost.set_observer}. Adds the
    charge to the global and the current pid's [by_cost] and moves the
    counters that mirror its category; allocates nothing once the pid
    has a slot. *)

val on_injection : t -> Fault.site -> unit
(** Record one injected failure at the given {!Fault.site}. *)

val on_oom_kill : t -> pid:Types.pid -> unit
(** Record one OOM kill of victim [pid] (globally and in the victim's
    per-pid slot — the faulter whose touch triggered it is someone
    else). *)

val on_ipi : t -> src:int -> dsts:int list -> full:bool -> n:int -> unit
(** Record [n] pages' worth of shootdown IPIs from CPU [src] to each
    CPU in [dsts] (the sender is never a destination); [full] marks a
    whole-AS flush and feeds the fanout histogram. The cycles arrive
    separately through {!on_cost}; this only moves counters. *)

val on_steal : t -> cpu:int -> unit
(** CPU [cpu] stole a runnable thread from another CPU's queue, which
    also migrates the thread's home to [cpu]: counts one steal and one
    migration. *)

val on_stdio_flush : t -> bytes:int -> inherited:int -> unit

val on_connect : t -> refused:bool -> unit
(** One connect() attempt by the current pid. *)

val on_accept : t -> pid:Types.pid -> unit
(** One accepted connection, attributed to an explicit [pid] — accept
    completions often happen in the pass that wakes parked syscalls,
    where no syscall is being dispatched. *)

val on_accept_queue : t -> depth:int -> unit
(** Observe an accept-queue depth (after a connect enqueued); keeps the
    peak. *)

val on_poll_wake : t -> pid:Types.pid -> timed_out:bool -> unit
(** One poll() completion for [pid]; [timed_out] when it returned with
    no fd ready. *)

val on_template_freeze : t -> unit
(** One successful freeze (failed freezes move no counter). *)

val on_template_spawn : t -> subtrees:int -> pages:int -> unit
(** One successful zygote spawn sharing [subtrees] page-table subtrees
    covering [pages] resident pages. *)

val kinds : counters -> (string * int) list
(** Syscall counts by kind name, most frequent first, ties by name.
    [[]] on a pid's record, which counts no kinds. *)

val snapshot : counters -> (string * int) list
(** Every integer counter as a (name, value) list with stable names
    ("cow-breaks", "tlb-shootdowns", ...); subtracting two snapshots
    pointwise gives the counter activity between them. *)

val to_json : counters -> Metrics.Json.t
(** {!snapshot}, the total cycles and the {!kinds} table. *)
