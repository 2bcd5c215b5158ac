(** Shared plain types of the kernel simulator. *)

type pid = int
type tid = int
type fd = int

(** Process termination status, as reported by wait. *)
type status = Exited of int | Killed of Usignal.t

val pp_status : Format.formatter -> status -> unit

type open_flags = {
  read : bool;
  write : bool;
  append : bool;
  create : bool;
  trunc : bool;
  cloexec : bool;
}

val o_rdonly : open_flags
val o_wronly : open_flags
(** write-only + create + trunc, the common "open for writing" shape *)

val o_rdwr : open_flags

val with_cloexec : open_flags -> open_flags

(** posix_spawn file actions, applied in the child in list order. *)
type file_action =
  | Fa_open of { fd : fd; path : string; flags : open_flags }
  | Fa_dup2 of fd * fd
  | Fa_close of fd

(** posix_spawn attributes. *)
type spawn_attr = {
  reset_signals : bool;
      (** restore every caught/ignored signal to its default *)
  mask : Usignal.Set.t option;  (** initial signal mask for the child *)
}

val default_attr : spawn_attr

type spawn_req = {
  path : string;
  argv : string list;
  file_actions : file_action list;
  attr : spawn_attr;
}

(** pthread_atfork handler triple. Handlers are user-image state: fork
    children inherit the registrations, exec destroys them. *)
type atfork = {
  prepare : (unit -> unit) option;  (** in the parent, before fork *)
  in_parent : (unit -> unit) option;  (** in the parent, after fork *)
  in_child : (unit -> unit) option;  (** in the child, before main *)
}

(** waitpid selector. *)
type wait_target = Any_child | Child of pid

(** sigprocmask operation. *)
type mask_op = Block | Unblock | Set_mask

(** poll() subscription: which readiness events the caller cares about
    on [pi_fd]. *)
type poll_interest = { pi_fd : fd; pi_in : bool; pi_out : bool }

(** poll() result entry. [pr_hup]/[pr_err] are reported regardless of
    the subscription, POLLHUP/POLLERR-style: [pr_hup] when the read side
    is at EOF with no writers left, [pr_err] when the write side has no
    readers left (writes would EPIPE). *)
type poll_revent = {
  pr_fd : fd;
  pr_in : bool;
  pr_out : bool;
  pr_hup : bool;
  pr_err : bool;
}

val pollin : fd -> poll_interest
val pollout : fd -> poll_interest
