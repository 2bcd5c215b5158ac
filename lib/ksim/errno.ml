type t =
  | EPERM
  | ENOENT
  | ESRCH
  | EINTR
  | EBADF
  | ECHILD
  | EAGAIN
  | ENOMEM
  | EACCES
  | EFAULT
  | EEXIST
  | ENOTDIR
  | EISDIR
  | EINVAL
  | EMFILE
  | ENOSPC
  | EPIPE
  | ENOSYS
  | ENOEXEC
  | EDEADLK
  | E2BIG
  | EBUSY
  | EADDRINUSE
  | ECONNREFUSED

let all =
  [
    EPERM; ENOENT; ESRCH; EINTR; EBADF; ECHILD; EAGAIN; ENOMEM; EACCES;
    EFAULT; EEXIST; ENOTDIR; EISDIR; EINVAL; EMFILE; ENOSPC; EPIPE; ENOSYS;
    ENOEXEC; EDEADLK; E2BIG; EBUSY; EADDRINUSE; ECONNREFUSED;
  ]

let to_string = function
  | EPERM -> "EPERM"
  | ENOENT -> "ENOENT"
  | ESRCH -> "ESRCH"
  | EINTR -> "EINTR"
  | EBADF -> "EBADF"
  | ECHILD -> "ECHILD"
  | EAGAIN -> "EAGAIN"
  | ENOMEM -> "ENOMEM"
  | EACCES -> "EACCES"
  | EFAULT -> "EFAULT"
  | EEXIST -> "EEXIST"
  | ENOTDIR -> "ENOTDIR"
  | EISDIR -> "EISDIR"
  | EINVAL -> "EINVAL"
  | EMFILE -> "EMFILE"
  | ENOSPC -> "ENOSPC"
  | EPIPE -> "EPIPE"
  | ENOSYS -> "ENOSYS"
  | ENOEXEC -> "ENOEXEC"
  | EDEADLK -> "EDEADLK"
  | E2BIG -> "E2BIG"
  | EBUSY -> "EBUSY"
  | EADDRINUSE -> "EADDRINUSE"
  | ECONNREFUSED -> "ECONNREFUSED"

let of_string s = List.find_opt (fun e -> to_string e = s) all

let equal a b = a = b
let pp ppf t = Format.pp_print_string ppf (to_string t)
