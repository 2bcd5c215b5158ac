(** The process-creation APIs tracked by the usage survey (E7). *)

type t =
  | Fork
  | Vfork
  | Clone
  | Posix_spawn
  | System
  | Popen
  | Exec

val all : t list

val name : t -> string
(** Display name, e.g. ["posix_spawn"]. *)

val identifiers : t -> string list
(** C identifiers whose call sites count toward this API, e.g. [Exec]
    covers the whole execve/execv/execvp/execl family. *)

val of_identifier : string -> t option
