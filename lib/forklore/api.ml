type t =
  | Fork
  | Vfork
  | Clone
  | Posix_spawn
  | System
  | Popen
  | Exec

let all = [ Fork; Vfork; Clone; Posix_spawn; System; Popen; Exec ]

let name = function
  | Fork -> "fork"
  | Vfork -> "vfork"
  | Clone -> "clone"
  | Posix_spawn -> "posix_spawn"
  | System -> "system"
  | Popen -> "popen"
  | Exec -> "exec*"

let identifiers = function
  | Fork -> [ "fork" ]
  | Vfork -> [ "vfork" ]
  | Clone -> [ "clone"; "clone3" ]
  | Posix_spawn -> [ "posix_spawn"; "posix_spawnp" ]
  | System -> [ "system" ]
  | Popen -> [ "popen" ]
  | Exec -> [ "execve"; "execv"; "execvp"; "execvpe"; "execl"; "execlp"; "execle" ]

let table =
  List.concat_map (fun api -> List.map (fun id -> (id, api)) (identifiers api)) all

let of_identifier id = List.assoc_opt id table
