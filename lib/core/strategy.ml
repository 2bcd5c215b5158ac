type t =
  | Fork_exec
  | Vfork_exec
  | Posix_spawn
  | Fork_only
  | Fork_eager
  | Builder

let all = [ Fork_exec; Vfork_exec; Posix_spawn; Fork_only; Fork_eager; Builder ]

let name = function
  | Fork_exec -> "fork+exec"
  | Vfork_exec -> "vfork+exec"
  | Posix_spawn -> "posix_spawn"
  | Fork_only -> "fork-only"
  | Fork_eager -> "fork-eager"
  | Builder -> "procbuilder"

let supported_real = function
  | Fork_exec | Vfork_exec | Posix_spawn | Fork_only -> true
  | Fork_eager | Builder -> false

let of_name s = List.find_opt (fun t -> name t = s) all
