(* One simulated machine's state, shared by [Kernel] and the syscall
   modules that serve it ([Lifecycle], [Fds], [Memory], [Threads],
   [Sockets], [Creation]): the config, the machine record, the reply
   protocol of a syscall handler and the payload a parked syscall
   carries. Each syscall module serves its syscalls over its
   subsystem's part of this state (DESIGN.md §4 lists them); process
   creation and termination reach into every part. There is no
   interface file: everything here is what those modules share. *)

type config = {
  phys_pages : int;
  cost_params : Vmem.Cost.params option;
  cpus : int;
  commit_policy : Vmem.Frame.policy;
  aslr : bool;
  seed : int;
  sched : [ `Fifo | `Random ];
  trace_capacity : int option;
  max_fds : int;
  fault : Fault.spec option;
  smp : bool;
  demand_paging : bool;
  pager_readahead : int;
}

let default_config =
  {
    phys_pages = 262_144 (* 1 GiB *);
    cost_params = None;
    cpus = 4;
    commit_policy = Vmem.Frame.Strict;
    aslr = true;
    seed = 42;
    sched = `Fifo;
    trace_capacity = None;
    max_fds = 256;
    fault = None;
    smp = false;
    demand_paging = false;
    pager_readahead = 0;
  }

(* A parked syscall, as its waiter carries it (see {!Waitq}). *)
type Waitq.payload +=
  | Parked : {
      th : Proc.thread;
      req : 'a Sysreq.t;  (** names the wait in stall reports *)
      check : unit -> 'a option;
      k : ('a, unit) Effect.Deep.continuation;
      entry_cycles : float;  (** cost-meter reading at dispatch *)
      detail : Trace.detail;
      mutable held : Ofd.t option;
          (** a read's or write's own reference to its description, as
              Linux's [fget] takes one for the length of a blocking
              call: a sibling's close cannot pull the description from
              under it *)
    }
      -> Waitq.payload

(* What a syscall handler asks of the dispatcher. [Block] is a syscall
   that may have to wait: the dispatcher runs [check] right away; while
   it returns [None], the caller stays parked on the queues [on], and
   [check] re-runs whenever one of them is kicked. [deadline] is the
   tick at which [check] gives up on its own (a poll's timeout), and
   [held] the description a read or write keeps open while it waits.
   [Die] ends the calling thread's syscall with no caller to resume
   (exit, or exec restarting it). *)
type 'a action =
  | Reply of 'a
  | Block of {
      on : Waitq.t list;
      deadline : int option;
      held : Ofd.t option;
      check : unit -> 'a option;
    }
  | Die

let block ?deadline ?held on check = Block { on; deadline; held; check }

type t = {
  config : config;
  frames : Vmem.Frame.t;
  cost : Vmem.Cost.t;
  tlb : Vmem.Tlb.t;
  vfs : Vfs.t;
  programs : (string, Program.t) Hashtbl.t;
  procs : (Types.pid, Proc.t) Hashtbl.t;
  alarms : (Types.pid, int) Hashtbl.t;
  mutable next_pid : int;
  mutable next_tid : int;
  (* One run queue per CPU: [cpus] of them on an SMP machine, one
     otherwise. A thread has an affinity home ([Proc.thread.cpu]); an
     idle CPU steals from the longest remote queue. *)
  runqs : Proc.thread Queue.t array;
  picked : Proc.thread option array;  (* each CPU's slice this round *)
  last_as : Vmem.Addr_space.t option array;
      (* the space last run on each CPU, for context-switch flush
         accounting. Compared with [==] only — it may be destroyed. *)
  mutable rr : int;  (* round-robin placement cursor for new threads *)
  waits : Waitq.machine;  (* parked syscalls *)
  mutable clock : int;
  rng : Prng.Splitmix.t;
  trace : Trace.t option;
  kstat : Kstat.t;
  blame : Vmem.Blame.t;
  fault : Fault.t option;
  (* the machine's one user-mode pager, installed into every address
     space the kernel creates when [demand_paging] is on; [None] keeps
     every fault path bit-identical to the eager simulator *)
  pager : Vmem.Addr_space.pager option;
  templates : (int, Template.t) Hashtbl.t;
  mutable next_tpl : int;
  (* the "network": port -> bound/listening socket. Entries go stale
     when the socket's final close moves it to [Closed]; lookups treat
     stale entries as free and [bind] reclaims them. *)
  socks : (int, Socket.t) Hashtbl.t;
}

let create ?(config = default_config) () =
  if config.smp && (config.cpus < 1 || config.cpus > Vmem.Cpuset.max_cpus)
  then
    invalid_arg
      (Printf.sprintf "Kernel.create: smp cpus must be 1..%d (got %d)"
         Vmem.Cpuset.max_cpus config.cpus);
  let cost = Vmem.Cost.create ?params:config.cost_params () in
  let kstat = Kstat.create () in
  if config.smp then Kstat.enable_smp kstat ~cpus:config.cpus;
  let blame = Vmem.Blame.create () in
  (* every cycle charge anywhere in the machine also lands in kstat,
     attributed to the pid set at dispatch time, and in the blame
     ledger, attributed to the active creation event (if any) *)
  Vmem.Cost.set_observer cost
    (Some
       (fun category ~n cycles ->
         Kstat.on_cost kstat category ~n cycles;
         Vmem.Blame.on_cost blame category ~n cycles));
  let frames =
    Vmem.Frame.create ~policy:config.commit_policy ~frames:config.phys_pages ()
  in
  let fault =
    match config.fault with
    | None -> None
    | Some spec ->
      let fi = Fault.create spec in
      (* the deny hooks fire inside the frame allocator, so injected
         memory-side failures hit every path that allocates — fork's COW
         clone, demand faults, image loads — not just syscall entry *)
      Vmem.Frame.set_deny_alloc frames
        (Some
           (fun () ->
             Fault.on_frame_alloc fi
             && begin
                  Kstat.on_injection kstat Fault.Frame_alloc;
                  true
                end));
      Vmem.Frame.set_deny_commit frames
        (Some
           (fun () ->
             Fault.on_commit fi
             && begin
                  Kstat.on_injection kstat Fault.Commit;
                  true
                end));
      Some fi
  in
  let pager =
    if not config.demand_paging then None
    else begin
      if config.pager_readahead < 0 then
        invalid_arg "Kernel.create: pager_readahead must be >= 0";
      (* pager pulls go through their own injection site so a schedule
         can fail the Nth fetch without perturbing frame-alloc draws *)
      let deny =
        match fault with
        | None -> fun () -> false
        | Some fi ->
          fun () ->
            Fault.on_pager_fetch fi
            && begin
                 Kstat.on_injection kstat Fault.Pager_fetch;
                 true
               end
      in
      Some (Pager.make ~frames ~deny ~readahead:config.pager_readahead ())
    end
  in
  let tlb = Vmem.Tlb.create ~cpus:config.cpus ~tracked:config.smp cost in
  if config.smp then
    (* per-CPU IPI counters ride on the shootdown charges; the cycles
       themselves arrive through the cost observer above *)
    Vmem.Tlb.set_ipi_hook tlb
      (Some
         (fun ~src ~dsts ~full ~n ->
           Kstat.on_ipi kstat ~src ~dsts:(Vmem.Cpuset.to_list dsts) ~full ~n));
  let ncpu = if config.smp then config.cpus else 1 in
  {
    config;
    frames;
    cost;
    tlb;
    vfs = Vfs.create ();
    programs = Hashtbl.create 16;
    procs = Hashtbl.create 64;
    alarms = Hashtbl.create 8;
    next_pid = 1;
    next_tid = 1;
    runqs = Array.init ncpu (fun _ -> Queue.create ());
    picked = Array.make ncpu None;
    last_as = Array.make ncpu None;
    rr = 0;
    waits = Waitq.create_machine ();
    clock = 0;
    rng = Prng.Splitmix.create ~seed:config.seed;
    trace = Option.map (fun capacity -> Trace.create ~capacity ()) config.trace_capacity;
    kstat;
    blame;
    fault;
    pager;
    templates = Hashtbl.create 4;
    next_tpl = 1;
    socks = Hashtbl.create 8;
  }

let params t = Vmem.Cost.params t.cost
let find_proc t pid = Hashtbl.find_opt t.procs pid
let find_template t id = Hashtbl.find_opt t.templates id
let enqueue t th = Queue.add th t.runqs.(th.Proc.cpu)

(* Traced events carry their CPU only on SMP machines, so single-CPU
   trace JSON (and the chrome goldens) are byte-identical to before. *)
let cpu_of t (th : Proc.thread) =
  if t.config.smp then Some th.Proc.cpu else None

let now_ns t = Vmem.Cost.cycles_to_ns (Vmem.Cost.total t.cost)
