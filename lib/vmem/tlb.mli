(** TLB cost model.

    The simulator does not cache translations (correctness never depends
    on a TLB); this module only *accounts* for the flush and shootdown
    work that real kernels must perform — the costs fork's COW downgrade
    forces onto every CPU running the parent.

    Two accounting modes exist:

    - {b legacy} (default): {!shootdown} broadcasts to all [cpus - 1]
      remote CPUs unconditionally, as one charged event. This is the
      pre-SMP model and every historical BENCH number embeds it.
    - {b tracked}: the SMP kernel knows which CPUs actually cache a
      mapping (the per-address-space {!Cpuset} mask) and charges one
      [Tlb_shootdown] event per IPI actually sent, via {!ipi}. *)

type t

type ipi_hook = src:int -> dsts:Cpuset.t -> full:bool -> n:int -> unit
(** Fired by {!ipi} after charging: [src] the sending CPU, [dsts] the
    remote CPUs interrupted (never containing [src]), [full] whether
    this is a full-AS flush (vs per-page invlpg), [n] the number of
    pages ([1] for full). *)

val create : ?cpus:int -> ?tracked:bool -> Cost.t -> t
(** [cpus] is how many CPUs may concurrently run threads of one address
    space; legacy shootdowns charge per remote CPU. Default 4, legacy
    mode.
    @raise Invalid_argument if [cpus < 1], or if [tracked] and [cpus]
    exceeds {!Cpuset.max_cpus}. *)

val tracked : t -> bool

val set_active : t -> int -> unit
(** Tracked mode: the scheduler notes which simulated CPU is currently
    executing, so {!ipi} knows the IPI source (and never charges the
    sender for interrupting itself).
    @raise Invalid_argument if out of range. *)

val active_cpu : t -> int

val set_ipi_hook : t -> ipi_hook option -> unit
(** Observer for per-CPU kstat accounting; see {!ipi_hook}. *)

val flush_local : t -> unit
(** Full flush on the current CPU (e.g. context switch to a new AS). *)

val shootdown : t -> unit
(** Legacy broadcast: flush an address space on every CPU — one local
    flush plus an IPI to each of the [cpus - 1] remote CPUs, charged as
    a single event. *)

val ipi : t -> dsts:Cpuset.t -> full:bool -> n:int -> unit
(** Tracked mode: send a shootdown IPI for [n] pages ([full] = whole
    address space) to every CPU in [dsts] except the active one.
    Charges [n * |dsts \ {active}|] [Tlb_shootdown] events (so
    [Cost.count m Tlb_shootdown] is the total IPI count), then fires
    the hook. No-op when the effective destination set is empty.
    @raise Invalid_argument on an untracked [t] or [n < 0]. *)

val invalidate_page : t -> unit
(** Single-page invalidation on the current CPU (COW break). *)

val invalidate_pages : t -> n:int -> unit
(** [n] single-page invalidations charged at once — same cycles and
    event count as [n] {!invalidate_page} calls. No-op at [n = 0].
    @raise Invalid_argument if [n < 0]. *)
