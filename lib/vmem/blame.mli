(** Cost-attribution ledger for process-creation events.

    The paper's central complaint is that fork's cost is deferred and
    misattributed: the price of a fork is paid later — by other
    processes — as COW breaks and TLB invalidations. This ledger makes
    that a measured table. Each sharing-creating operation (fork,
    template freeze, zygote spawn, process-builder construction)
    allocates an {e event}; cycle charges observed while an attribution
    context is active land in that event's [Sync] bucket (paid during
    the creating syscall itself) or [Deferred] bucket (paid later, when
    a write breaks the sharing the event created). Charges observed
    with no context fall into the [unattributed] bucket, so the three
    partitions always sum to the {!Cost} meter's own per-category
    totals — exactly, because all cost parameters are integer-valued
    floats.

    The ledger is driven purely through the {!Cost} observer hook plus
    explicit contexts; it never charges the meter itself, so enabling
    it cannot perturb any simulated number. *)

type kind = Sync | Deferred

type event = private {
  id : int;
  style : string;  (** "fork", "vfork", "spawn", "freeze", "zygote", ... *)
  parent : int;  (** pid of the process that issued the creation *)
  mutable child : int option;  (** created pid, once known *)
  mutable failed : bool;
  mutable tag : string option;  (** e.g. ["tpl:3"] for template events *)
  sync : Cost.t;  (** paid during the creating syscall *)
  deferred : Cost.t;  (** paid later, breaking the sharing it made *)
}

type t

val create : unit -> t

val on_cost : t -> Cost.cat -> n:int -> float -> unit
(** Observer body; the kernel chains it after [Kstat.on_cost] on the
    single {!Cost.set_observer} slot. One {!Cost.add} into the bucket
    the active context picked; allocates nothing. *)

val new_event : t -> style:string -> parent:int -> int
(** Allocate a ledger event; returns its id. Event ids are their own
    namespace (not pids) so failed creations keep their ledger row. *)

val set_child : t -> int -> child:int -> unit
(** Record the created pid and index the event under it. Call only for
    events that created an actual process. *)

val set_tag : t -> int -> string -> unit
val mark_failed : t -> int -> unit

val event_of_child : t -> int -> int option
(** The event that created [pid], if any. *)

val with_context : t -> id:int -> kind -> (unit -> 'a) -> 'a
(** [with_context t ~id kind f] runs [f] with charges attributed to
    event [id]'s [kind] bucket (unattributed if [id] is unknown), picked
    once on entry; restores the previous context on exit (also on
    exception, which it re-raises). Contexts nest by shadowing. The
    restore allocates no cleanup closure: a batched touch enters once
    per pager request and once per flush. *)

val find : t -> int -> event option

val events : t -> event list
(** All events, ascending id (creation order — deterministic). *)

val totals : t -> Cost.t
(** Grand totals across every bucket. Its {!Cost.entries} equal the
    kernel meter's — the partition property the QCheck test asserts. *)

val to_json : t -> Metrics.Json.t
