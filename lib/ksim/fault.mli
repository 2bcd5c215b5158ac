(** Deterministic fault injection for the simulated kernel.

    The paper's core indictment of fork is its failure behaviour: ENOMEM
    at fork is effectively untestable on a real system, so callers don't
    handle it and systems overcommit instead (E6). This module makes
    failure a first-class, reproducible dimension of ksim: a {!spec} is
    a schedule of injected failures — explicit "fail the Nth occurrence"
    triggers and seeded random rates — applied at three boundaries:

    - {e frame allocation} ([Vmem.Frame.alloc], batched paths included):
      the allocation fails with [`Out_of_memory], surfacing as [ENOMEM];
    - {e commit accounting} ([Vmem.Frame.commit]): the charge fails with
      [`Commit_limit], surfacing as [ENOMEM] — this is the strict-commit
      rejection path fork exercises first;
    - {e syscall dispatch}: a fallible syscall replies with the injected
      errno ([ENOMEM], [EAGAIN] or [EINTR]) without running at all, the
      transient-failure model a retry policy must survive.

    Schedules are deterministic: the same [spec] (including [seed])
    against the same programs injects at exactly the same points.
    Occurrence counting is per-machine and starts at 1 at boot. Every
    injection is recorded in {!Kstat} (per-site counters) and, for
    traced runs, in the typed [injected] field of the syscall's End
    event ({!Trace.injected}): the injected reply's errno, or the
    frame-alloc and commit denials its handler met. *)

type site =
  | Frame_alloc  (** a physical frame allocation *)
  | Commit  (** a strict-commit accounting charge *)
  | Syscall  (** a syscall reply, decided at dispatch *)
  | Pager_fetch  (** a user-mode pager pulling one page at first touch *)

type trigger =
  | Frame_alloc_nth of int
      (** fail the Nth frame allocation of the run (1-based) *)
  | Commit_nth of int  (** fail the Nth non-empty commit charge *)
  | Syscall_nth of { kind : string; nth : int; errno : Errno.t }
      (** fail the Nth syscall named [kind] (the [name] of its
          {!Sysreq.info}) with [errno]; only fallible syscalls are
          counted *)
  | Frame_alloc_random of float
      (** fail each frame allocation with this probability *)
  | Commit_random of float
  | Syscall_random of { kind : string option; p : float; errno : Errno.t }
      (** fail each dispatch of [kind] ([None] = any fallible syscall)
          with probability [p] *)
  | Pager_fetch_nth of int
      (** fail the Nth page the pager pulls (readahead pages count) *)
  | Pager_fetch_random of float
      (** fail each pager page pull with this probability *)

type spec = { seed : int; triggers : trigger list }

val injectable : Errno.t list
(** Errnos a syscall-dispatch trigger may carry:
    [[ENOMEM; EAGAIN; EINTR]]. *)

val validate : spec -> (unit, string) result
(** Reject schedules with non-injectable errnos, non-positive
    occurrence numbers, or probabilities outside [[0, 1]]. *)

type t

val create : spec -> t
(** @raise Invalid_argument when {!validate} rejects the spec. *)

val spec : t -> spec

(** {2 Injection points} (called by the kernel and the frame allocator) *)

val on_frame_alloc : t -> bool
(** Advance the frame-allocation occurrence counter; [true] = deny. *)

val on_commit : t -> bool

val on_pager_fetch : t -> bool
(** Advance the pager-pull occurrence counter; [true] = deny the fetch
    (the page stays lazy/absent; a denied faulting page surfaces as
    ENOMEM or an OOM kill, a denied readahead page just stops the
    batch). *)

val on_syscall : t -> kind:string -> Errno.t option
(** Advance [kind]'s occurrence counter; [Some e] = reply [Error e]
    without executing the syscall. Call only for fallible syscalls. *)

(** {2 Accounting} *)

val injected : t -> site -> int
(** Injections performed so far at the given site. *)

val total_injected : t -> int

val seen : t -> site -> int
(** Occurrences observed so far at the given site (injected or not). *)
