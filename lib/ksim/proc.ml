type pending =
  | Pending :
      'a Sysreq.t * ('a, unit) Effect.Deep.continuation
      -> pending

type thread_state = Ready | Running | Blocked | Exited
type entry = Start of (unit -> unit) | Resume of (unit -> unit)

type thread = {
  tid : Types.tid;
  owner : Types.pid;
  is_main : bool;
  mutable tstate : thread_state;
  mutable entry : entry option;
  mutable pending : pending option;
  mutable cpu : int;
      (** simulated CPU this thread last ran on (its affinity home in
          the SMP scheduler); always 0 on a single-CPU machine *)
  mutable wait : Waitq.waiter option;
}

type state = Alive | Zombie of Types.status | Reaped of Types.status

type t = {
  pid : Types.pid;
  mutable parent : Types.pid;
  mutable pstate : state;
  mutable aspace : Vmem.Addr_space.t;
  mutable vfork_active : bool;
  mutable fdt : Fd_table.t;
  sigdisp : Usignal.disposition array;
  mutable sigmask : Usignal.Set.t;
  mutable sigpending : Usignal.Set.t;
  handler_runs : (string, int) Hashtbl.t;
  mutable cwd : string;
  mutable mutexes : Sync.table;
  mutable threads : thread list;
  mutable live : int;
  mutable children : Types.pid list;
  mutable program : string;
  mutable held_locks : Vfs.regular list;
  mutable atfork : Types.atfork list;
  mutable tpl_deps : int list;
      (** template ids whose pages this process's address space may map:
          set at zygote spawn, inherited across fork (the child shares
          the same COW image), released when the address space is
          destroyed. Gates template discard. *)
  waitpid_waiters : Waitq.t;
  vfork_waiters : Waitq.t;
}

let make_thread ~tid ~owner ~is_main body =
  {
    tid;
    owner;
    is_main;
    tstate = Ready;
    entry = Some (Start body);
    pending = None;
    cpu = 0;
    wait = None;
  }

let max_signal_number =
  List.fold_left (fun acc s -> max acc (Usignal.number s)) 0 Usignal.all

let make ~pid ~parent ~aspace ~fdt ~cwd ~program =
  {
    pid;
    parent;
    pstate = Alive;
    aspace;
    vfork_active = false;
    fdt;
    sigdisp = Array.make (max_signal_number + 1) Usignal.Default;
    sigmask = Usignal.Set.empty;
    sigpending = Usignal.Set.empty;
    handler_runs = Hashtbl.create 4;
    cwd;
    mutexes = Sync.create_table ();
    threads = [];
    live = 0;
    children = [];
    program;
    held_locks = [];
    atfork = [];
    tpl_deps = [];
    waitpid_waiters = Waitq.create ~exclusive:false;
    vfork_waiters = Waitq.create ~exclusive:false;
  }

let disposition t s = t.sigdisp.(Usignal.number s)
let set_disposition t s d = t.sigdisp.(Usignal.number s) <- d

let is_alive t = t.pstate = Alive

(* The changes that can end a parked waitpid or vfork wake its queue. *)
let child_exited t = Waitq.kick t.waitpid_waiters

let reap t (child : t) st =
  child.pstate <- Reaped st;
  t.children <- List.filter (fun p -> p <> child.pid) t.children;
  Waitq.kick t.waitpid_waiters

let adopt_orphan t pid =
  t.children <- pid :: t.children;
  Waitq.kick t.waitpid_waiters

let release_vfork t =
  t.vfork_active <- false;
  Waitq.kick t.vfork_waiters

let count_handler_run t name =
  let cur = Option.value ~default:0 (Hashtbl.find_opt t.handler_runs name) in
  Hashtbl.replace t.handler_runs name (cur + 1)

let handler_runs t name =
  Option.value ~default:0 (Hashtbl.find_opt t.handler_runs name)
