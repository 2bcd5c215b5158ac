(** Typed wrapper over the simulator's cross-process operations — the
    clean-slate child-construction API the paper's §6 recommends
    (ExOS-style cross-process calls / Fuchsia's process_builder).

    Usage, from inside a simulated program:
    {[
      let* b = Procbuilder.create () in
      let* addr = Procbuilder.map b ~len ~perm:Vmem.Perm.rw in
      let* () = Procbuilder.write b ~addr "config" in
      let* () = Procbuilder.copy_stdio b in
      let* () = Procbuilder.start b "/bin/worker" in
      Api.wait_for (Procbuilder.pid b)
    ]}

    The parent names every piece of child state explicitly; nothing is
    inherited by accident, and the child needs no fork-style copy of the
    parent. *)

type t

val create : unit -> (t, Ksim.Errno.t) result
(** Make an embryo child (see {!Ksim.Sysreq.Pb_create}). *)

val pid : t -> Ksim.Types.pid
val map : t -> len:int -> perm:Vmem.Perm.t -> (int, Ksim.Errno.t) result
val write : t -> addr:int -> string -> (unit, Ksim.Errno.t) result

val copy_stdio : t -> (unit, Ksim.Errno.t) result
(** Copy fds 0, 1 and 2. *)

val start : t -> ?argv:string list -> string -> (unit, Ksim.Errno.t) result
(** Load the named program and start the child. The builder must not be
    used afterwards (further operations fail with EINVAL). *)

val spawn_minimal :
  ?argv:string list -> string -> (Ksim.Types.pid, Ksim.Errno.t) result
(** Convenience: create + copy_stdio + start. *)

val spawn_retrying :
  ?policy:Spawnlib.Retry.policy ->
  ?argv:string list ->
  string ->
  (Ksim.Types.pid, Ksim.Errno.t) result
(** {!spawn_minimal} under {!Spawnlib.Retry.with_policy} (default
    policy {!Spawnlib.Retry.default}): transient failures (EAGAIN,
    ENOMEM, EINTR) are retried with exponential backoff {e in simulated
    time} — each delay unit is a yielded scheduler slice, so waiting
    advances the sim clock and gives other processes a chance to free
    memory. Because every [start] failure rolls the embryo back to a
    clean state, the retry reuses nothing stale. Permanent errors and
    exhausted attempts return the last errno. *)
