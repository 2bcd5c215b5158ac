(** Process-creation strategies compared throughout the evaluation. *)

type t =
  | Fork_exec  (** classic fork + execve *)
  | Vfork_exec  (** vfork + execve (borrowed address space) *)
  | Posix_spawn
  | Fork_only  (** fork, child exits immediately: isolates the AS copy *)
  | Fork_eager  (** simulator ablation: fork with eager page copying *)
  | Builder  (** simulator: cross-process operations (paper §6) *)

val all : t list
val name : t -> string

val supported_real : t -> bool
(** Whether the real-OS driver can measure it (eager-copy fork and
    cross-process builds have no Linux equivalent). *)

val of_name : string -> t option
