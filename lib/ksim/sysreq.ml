type 'a t =
  | Getpid : Types.pid t
  | Getppid : Types.pid t
  | Gettid : Types.tid t
  | Fork : (unit -> unit) -> (Types.pid, Errno.t) result t
  | Fork_eager : (unit -> unit) -> (Types.pid, Errno.t) result t
  | Vfork : (unit -> unit) -> (Types.pid, Errno.t) result t
  | Spawn : Types.spawn_req -> (Types.pid, Errno.t) result t
  | Exec : { path : string; argv : string list } -> (unit, Errno.t) result t
  | Exit : int -> unit t
  | Waitpid : Types.wait_target -> (Types.pid * Types.status, Errno.t) result t
  | Kill : Types.pid * Usignal.t -> (unit, Errno.t) result t
  | Sigaction :
      Usignal.t * Usignal.disposition
      -> (Usignal.disposition, Errno.t) result t
  | Sigprocmask : Types.mask_op * Usignal.Set.t -> Usignal.Set.t t
  | Alarm : int -> int t
  | Open : string * Types.open_flags -> (Types.fd, Errno.t) result t
  | Close : Types.fd -> (unit, Errno.t) result t
  | Read : Types.fd * int -> (string, Errno.t) result t
  | Write : Types.fd * string -> (int, Errno.t) result t
  | Dup : Types.fd -> (Types.fd, Errno.t) result t
  | Dup2 : { src : Types.fd; dst : Types.fd } -> (Types.fd, Errno.t) result t
  | Set_cloexec : Types.fd * bool -> (unit, Errno.t) result t
  | Pipe : (Types.fd * Types.fd, Errno.t) result t
  | Try_lock : Types.fd -> (unit, Errno.t) result t
  | Unlock : Types.fd -> (unit, Errno.t) result t
  | Mmap : { len : int; perm : Vmem.Perm.t } -> (int, Errno.t) result t
  | Munmap : { addr : int; len : int } -> (unit, Errno.t) result t
  | Brk : int option -> (int, Errno.t) result t
  | Mem_read : { addr : int; len : int } -> (string, Errno.t) result t
  | Mem_write : { addr : int; data : string } -> (unit, Errno.t) result t
  | Touch : { addr : int; len : int } -> (int, Errno.t) result t
  | Thread_create : (unit -> unit) -> (Types.tid, Errno.t) result t
  | Mutex_create : int t
  | Mutex_lock : int -> (unit, Errno.t) result t
  | Mutex_unlock : int -> (unit, Errno.t) result t
  | Mutex_trylock : int -> (unit, Errno.t) result t
  | Mutex_reinit : int -> (unit, Errno.t) result t
  | Yield : unit t
  | Handled_signals : string -> int t
  | Chdir : string -> (unit, Errno.t) result t
  | Getcwd : string t
  | Atfork_register : Types.atfork -> unit t
  | Atfork_list : Types.atfork list t
  | Pb_create : (Types.pid, Errno.t) result t
  | Pb_map :
      { pid : Types.pid; len : int; perm : Vmem.Perm.t }
      -> (int, Errno.t) result t
  | Pb_write :
      { pid : Types.pid; addr : int; data : string }
      -> (unit, Errno.t) result t
  | Pb_copy_fd :
      { pid : Types.pid; src : Types.fd; dst : Types.fd }
      -> (unit, Errno.t) result t
  | Pb_start :
      { pid : Types.pid; path : string; argv : string list }
      -> (unit, Errno.t) result t
  | Stdio_flushed : { bytes : int; inherited : int } -> unit t
  | Template_freeze : { pid : Types.pid option } -> (int, Errno.t) result t
  | Template_spawn :
      { tpl : int; body : unit -> unit }
      -> (Types.pid, Errno.t) result t
  | Template_discard : int -> (unit, Errno.t) result t
  | Socket : (Types.fd, Errno.t) result t
  | Bind : Types.fd * int -> (unit, Errno.t) result t
  | Listen : { fd : Types.fd; backlog : int } -> (unit, Errno.t) result t
  | Accept : Types.fd -> (Types.fd, Errno.t) result t
  | Connect : Types.fd * int -> (unit, Errno.t) result t
  | Poll :
      { interests : Types.poll_interest list; timeout : int }
      -> (Types.poll_revent list, Errno.t) result t

type _ Effect.t += Sys : 'a t -> 'a Effect.t

type _ reply =
  | Fallible : Errno.t list -> ('a, Errno.t) result reply
  | Total : 'a reply

type cost = Syscall | Memory | Accounting
type 'a info = { idx : int; name : string; reply : 'a reply; cost : cost }

(* Every arm is a record of constants, allocated once at compile time,
   and there is no wildcard arm: a new request does not compile until it
   has a descriptor. [idx] is the declaration position. The errno lists
   hold what each syscall's handler (in the module [Kernel.attempt]
   routes it to) can reply; the kernel rejects any errno outside
   [admits]. *)
let info : type a. a t -> a info =
  let open Errno in
  function
  | Getpid -> { idx = 0; name = "getpid"; reply = Total; cost = Syscall }
  | Getppid -> { idx = 1; name = "getppid"; reply = Total; cost = Syscall }
  | Gettid -> { idx = 2; name = "gettid"; reply = Total; cost = Syscall }
  | Fork _ -> { idx = 3; name = "fork"; reply = Fallible []; cost = Syscall }
  | Fork_eager _ -> { idx = 4; name = "fork_eager"; reply = Fallible []; cost = Syscall }
  | Vfork _ -> { idx = 5; name = "vfork"; reply = Fallible []; cost = Syscall }
  | Spawn _ ->
    {
      idx = 6;
      name = "posix_spawn";
      reply =
        Fallible
          [ ENOENT; ENOTDIR; EISDIR; EACCES; EEXIST; EINVAL; EBADF; EMFILE ];
      cost = Syscall;
    }
  | Exec _ ->
    {
      idx = 7;
      name = "execve";
      reply = Fallible [ ENOENT; ENOTDIR; EISDIR; EACCES; EINVAL ];
      cost = Syscall;
    }
  | Exit _ -> { idx = 8; name = "exit"; reply = Total; cost = Syscall }
  | Waitpid _ ->
    { idx = 9; name = "waitpid"; reply = Fallible [ ECHILD ]; cost = Syscall }
  | Kill _ -> { idx = 10; name = "kill"; reply = Fallible [ ESRCH ]; cost = Syscall }
  | Sigaction _ ->
    { idx = 11; name = "sigaction"; reply = Fallible [ EINVAL ]; cost = Syscall }
  | Sigprocmask _ -> { idx = 12; name = "sigprocmask"; reply = Total; cost = Syscall }
  | Alarm _ -> { idx = 13; name = "alarm"; reply = Total; cost = Syscall }
  | Open _ ->
    {
      idx = 14;
      name = "open";
      reply =
        Fallible [ ENOENT; ENOTDIR; EISDIR; EACCES; EEXIST; EINVAL; EMFILE ];
      cost = Syscall;
    }
  | Close _ -> { idx = 15; name = "close"; reply = Fallible [ EBADF ]; cost = Syscall }
  | Read _ ->
    { idx = 16; name = "read"; reply = Fallible [ EBADF; EINVAL ]; cost = Syscall }
  | Write _ ->
    { idx = 17; name = "write"; reply = Fallible [ EBADF; EPIPE; EINVAL ];
      cost = Syscall }
  | Dup _ ->
    { idx = 18; name = "dup"; reply = Fallible [ EBADF; EMFILE ]; cost = Syscall }
  | Dup2 _ ->
    { idx = 19; name = "dup2"; reply = Fallible [ EBADF; EMFILE; EINVAL ];
      cost = Syscall }
  | Set_cloexec _ ->
    { idx = 20; name = "set_cloexec"; reply = Fallible [ EBADF ]; cost = Syscall }
  | Pipe -> { idx = 21; name = "pipe"; reply = Fallible [ EMFILE ]; cost = Syscall }
  | Try_lock _ ->
    { idx = 22; name = "try_lock"; reply = Fallible [ EBADF; EINVAL ]; cost = Syscall }
  | Unlock _ ->
    { idx = 23; name = "unlock"; reply = Fallible [ EBADF; EINVAL; EPERM ];
      cost = Syscall }
  | Mmap _ -> { idx = 24; name = "mmap"; reply = Fallible [ EINVAL ]; cost = Syscall }
  | Munmap _ -> { idx = 25; name = "munmap"; reply = Fallible [ EINVAL ]; cost = Syscall }
  | Brk _ -> { idx = 26; name = "brk"; reply = Fallible [ EINVAL ]; cost = Syscall }
  | Mem_read _ ->
    { idx = 27; name = "mem_read"; reply = Fallible [ EFAULT; EACCES; EINVAL ];
      cost = Memory }
  | Mem_write _ ->
    { idx = 28; name = "mem_write"; reply = Fallible [ EFAULT; EACCES ]; cost = Memory }
  | Touch _ ->
    { idx = 29; name = "touch"; reply = Fallible [ EFAULT; EACCES ]; cost = Memory }
  | Thread_create _ ->
    { idx = 30; name = "thread_create"; reply = Fallible []; cost = Syscall }
  | Mutex_create -> { idx = 31; name = "mutex_create"; reply = Total; cost = Syscall }
  | Mutex_lock _ ->
    { idx = 32; name = "mutex_lock"; reply = Fallible [ EINVAL; EDEADLK ];
      cost = Syscall }
  | Mutex_unlock _ ->
    { idx = 33; name = "mutex_unlock"; reply = Fallible [ EINVAL; EPERM ];
      cost = Syscall }
  | Mutex_trylock _ ->
    { idx = 34; name = "mutex_trylock"; reply = Fallible [ EINVAL ]; cost = Syscall }
  | Mutex_reinit _ ->
    { idx = 35; name = "mutex_reinit"; reply = Fallible [ EINVAL ]; cost = Syscall }
  | Yield -> { idx = 36; name = "yield"; reply = Total; cost = Syscall }
  | Handled_signals _ ->
    { idx = 37; name = "handled_signals"; reply = Total; cost = Syscall }
  | Chdir _ ->
    { idx = 38; name = "chdir"; reply = Fallible [ ENOENT; ENOTDIR; EACCES ];
      cost = Syscall }
  | Getcwd -> { idx = 39; name = "getcwd"; reply = Total; cost = Syscall }
  | Atfork_register _ ->
    { idx = 40; name = "atfork_register"; reply = Total; cost = Syscall }
  | Atfork_list -> { idx = 41; name = "atfork_list"; reply = Total; cost = Syscall }
  | Pb_create -> { idx = 42; name = "pb_create"; reply = Fallible []; cost = Syscall }
  | Pb_map _ ->
    { idx = 43; name = "pb_map"; reply = Fallible [ ESRCH; EPERM; EINVAL ];
      cost = Syscall }
  | Pb_write _ ->
    {
      idx = 44;
      name = "pb_write";
      reply = Fallible [ ESRCH; EPERM; EINVAL; EFAULT; EACCES ];
      cost = Syscall;
    }
  | Pb_copy_fd _ ->
    {
      idx = 45;
      name = "pb_copy_fd";
      reply = Fallible [ ESRCH; EPERM; EINVAL; EBADF; EMFILE ];
      cost = Syscall;
    }
  | Pb_start _ ->
    {
      idx = 46;
      name = "pb_start";
      reply =
        Fallible [ ESRCH; EPERM; ENOENT; ENOTDIR; EISDIR; EACCES; EINVAL ];
      cost = Syscall;
    }
  | Stdio_flushed _ ->
    { idx = 47; name = "stdio_flushed"; reply = Total; cost = Accounting }
  | Template_freeze _ ->
    {
      idx = 48;
      name = "template_freeze";
      reply = Fallible [ ESRCH; EPERM; EINVAL; EBUSY ];
      cost = Syscall;
    }
  | Template_spawn _ ->
    { idx = 49; name = "template_spawn"; reply = Fallible [ EINVAL ]; cost = Syscall }
  | Template_discard _ ->
    { idx = 50; name = "template_discard"; reply = Fallible [ EINVAL; EBUSY ];
      cost = Syscall }
  | Socket -> { idx = 51; name = "socket"; reply = Fallible [ EMFILE ]; cost = Syscall }
  | Bind _ ->
    { idx = 52; name = "bind"; reply = Fallible [ EBADF; EINVAL; EADDRINUSE ];
      cost = Syscall }
  | Listen _ ->
    { idx = 53; name = "listen"; reply = Fallible [ EBADF; EINVAL ]; cost = Syscall }
  | Accept _ ->
    { idx = 54; name = "accept"; reply = Fallible [ EBADF; EINVAL; EMFILE ];
      cost = Syscall }
  | Connect _ ->
    {
      idx = 55;
      name = "connect";
      reply = Fallible [ EBADF; EINVAL; ECONNREFUSED ];
      cost = Syscall;
    }
  | Poll _ ->
    { idx = 56; name = "poll"; reply = Fallible [ EBADF; EINVAL ]; cost = Syscall }

let nkinds = 57

let admits : type a. a info -> Errno.t -> bool =
 fun info e ->
  match info.reply with
  | Fallible errnos -> List.mem e errnos || List.mem e Fault.injectable
  | Total -> false
