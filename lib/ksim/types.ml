type pid = int
type tid = int
type fd = int
type status = Exited of int | Killed of Usignal.t

let pp_status ppf = function
  | Exited code -> Format.fprintf ppf "exited(%d)" code
  | Killed s -> Format.fprintf ppf "killed(%a)" Usignal.pp s

type open_flags = {
  read : bool;
  write : bool;
  append : bool;
  create : bool;
  trunc : bool;
  cloexec : bool;
}

let o_rdonly =
  { read = true; write = false; append = false; create = false; trunc = false;
    cloexec = false }

let o_wronly =
  { read = false; write = true; append = false; create = true; trunc = true;
    cloexec = false }

let o_rdwr = { o_rdonly with write = true; create = true }
let with_cloexec flags = { flags with cloexec = true }

type file_action =
  | Fa_open of { fd : fd; path : string; flags : open_flags }
  | Fa_dup2 of fd * fd
  | Fa_close of fd

type spawn_attr = {
  reset_signals : bool;
  mask : Usignal.Set.t option;
}

let default_attr = { reset_signals = false; mask = None }

type spawn_req = {
  path : string;
  argv : string list;
  file_actions : file_action list;
  attr : spawn_attr;
}

type atfork = {
  prepare : (unit -> unit) option;
  in_parent : (unit -> unit) option;
  in_child : (unit -> unit) option;
}

type wait_target = Any_child | Child of pid
type mask_op = Block | Unblock | Set_mask

type poll_interest = { pi_fd : fd; pi_in : bool; pi_out : bool }

type poll_revent = {
  pr_fd : fd;
  pr_in : bool;
  pr_out : bool;
  pr_hup : bool;
  pr_err : bool;
}

let pollin fd = { pi_fd = fd; pi_in = true; pi_out = false }
let pollout fd = { pi_fd = fd; pi_in = false; pi_out = true }
