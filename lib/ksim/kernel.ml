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

type stall = { pid : Types.pid; tid : Types.tid; why : string }
type outcome = All_exited | Stalled of stall list | Tick_limit

let pp_outcome ppf = function
  | All_exited -> Format.pp_print_string ppf "all-exited"
  | Tick_limit -> Format.pp_print_string ppf "tick-limit"
  | Stalled stalls ->
    Format.fprintf ppf "stalled(%a)"
      (Format.pp_print_list
         ~pp_sep:(fun ppf () -> Format.pp_print_string ppf ", ")
         (fun ppf s -> Format.fprintf ppf "pid%d/tid%d:%s" s.pid s.tid s.why))
      stalls

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

let config t = t.config
let register t prog = Hashtbl.replace t.programs prog.Program.name prog
let register_all t progs = List.iter (register t) progs
let find_program t name = Hashtbl.find_opt t.programs name
let cost t = t.cost
let frames t = t.frames
let vfs t = t.vfs
let tlb t = t.tlb
let console t = Buffer.contents (Vfs.console_buffer t.vfs)
let trace t = t.trace
let kstat t = t.kstat
let blame t = t.blame
let fault t = t.fault
let clock t = t.clock
let find_proc t pid = Hashtbl.find_opt t.procs pid

let procs t =
  Hashtbl.fold (fun _ p acc -> p :: acc) t.procs []
  |> List.sort (fun a b -> compare a.Proc.pid b.Proc.pid)

(* Processes never leave [procs], so a reaped one still has its status. *)
let status_of t pid =
  match find_proc t pid with
  | Some { Proc.pstate = Proc.Zombie st | Proc.Reaped st; _ } -> Some st
  | Some { Proc.pstate = Proc.Alive; _ } | None -> None

let params t = Vmem.Cost.params t.cost

let fresh_pid t =
  let pid = t.next_pid in
  t.next_pid <- pid + 1;
  pid

let find_template t id = Hashtbl.find_opt t.templates id

let templates t =
  Hashtbl.fold (fun _ tpl acc -> tpl :: acc) t.templates []
  |> List.sort (fun a b -> compare a.Template.id b.Template.id)

(* Template lifetime: every process whose address space may map a
   template's pinned frames holds a dep on it — the zygote child, its
   fork descendants (their COW/shared clones keep mapping the same
   frames), and the frozen source itself. Deps are released exactly
   where the address space is destroyed, so discard (which un-pins and
   frees the pages) can only run once no mapping is left. *)
let acquire_tpl_deps t ids =
  List.iter
    (fun id ->
      match find_template t id with
      | Some tpl -> tpl.Template.live_deps <- tpl.Template.live_deps + 1
      | None -> ())
    ids

let release_tpl_deps t (proc : Proc.t) =
  List.iter
    (fun id ->
      match find_template t id with
      | Some tpl -> tpl.Template.live_deps <- tpl.Template.live_deps - 1
      | None -> ())
    proc.Proc.tpl_deps;
  proc.Proc.tpl_deps <- []

let fresh_tid t =
  let tid = t.next_tid in
  t.next_tid <- tid + 1;
  tid

let proc_of t (th : Proc.thread) =
  match find_proc t th.Proc.owner with
  | Some p -> p
  | None -> invalid_arg "Kernel: thread without process"

let enqueue t th = Queue.add th t.runqs.(th.Proc.cpu)

(* Traced events carry their CPU only on SMP machines, so single-CPU
   trace JSON (and the chrome goldens) are byte-identical to before. *)
let cpu_of t (th : Proc.thread) =
  if t.config.smp then Some th.Proc.cpu else None

let ready_thread t th resume =
  th.Proc.entry <- Some (Proc.Resume resume);
  th.Proc.tstate <- Proc.Ready;
  enqueue t th

(* ------------------------------------------------------------------ *)
(* Image loading and address-space layout *)

let text_base = 0x0040_0000
let image_base = text_base
let stack_len = 1 lsl 20 (* 1 MiB *)
let stack_top_base = 0x7FFF_F000_0000
let mmap_base_floor = 0x7000_0000_0000
let aslr_entropy_pages = 1 lsl 20 (* 20 bits *)

let aslr_offset t =
  if t.config.aslr then
    Vmem.Addr.page_size * Prng.Splitmix.int t.rng ~bound:aslr_entropy_pages
  else 0

(* Load [prog]'s image (text, data, heap base, stack) into [aspace].
   Shared by exec, posix_spawn and Pb_start; constant in the parent's
   size — which is the whole point.

   Transactional: a failed load rolls back every segment it mapped and
   the heap base, leaving [aspace] exactly as it found it. exec and
   spawn destroy a fresh aspace on failure anyway, but Pb_start loads
   into the embryo's {e live} address space — without rollback a
   transient ENOMEM would leak the partial image (frames the parent can
   never reclaim) and make any retry fail on [`Overlap]. *)
let load_image t prog aspace =
  let p = params t in
  Vmem.Cost.charge t.cost Exec_base p.Vmem.Cost.exec_base;
  (* With a pager each image segment becomes one run of lazy PTEs
     carrying image cookies — O(segments) instead of O(pages), the
     near-constant-time exec of the demand-paging study. [page0] numbers
     the segment's first page within the whole image so the pager can
     tell which image page a later first touch is pulling. Heap, stack
     and guard stay eager-absent: their faults are demand-zero minors
     that never need the pager. *)
  let map_segment ~base ~pages ~perm ~kind ~page0 =
    match t.pager with
    | Some _ when pages > 0 -> (
      match
        Vmem.Addr_space.map_lazy ~addr:base ~len:(pages * Vmem.Addr.page_size)
          ~perm ~kind
          ~cookie0:(Pager.image_cookie ~page:page0)
          ~stride:Pager.image_stride aspace
      with
      | Ok (_ : int) -> Ok ()
      | Error (`No_space | `Commit_limit | `Overlap | `Invalid) -> Error ())
    | Some _ | None ->
      let rec go i =
        if i >= pages then Ok ()
        else
          match
            Vmem.Addr_space.map_image_page aspace
              ~addr:(base + (i * Vmem.Addr.page_size))
              ~perm ~kind ()
          with
          | Ok () -> go (i + 1)
          | Error (`Out_of_memory | `Commit_limit | `Overlap | `Invalid) ->
            Error ()
      in
      go 0
  in
  let text_pages = Program.text_pages prog in
  let data_base = text_base + (text_pages * Vmem.Addr.page_size) in
  let data_pages = Program.data_pages prog in
  let heap_base = data_base + (data_pages * Vmem.Addr.page_size) in
  (* [munmap] ignores holes, so unmapping the whole attempted span also
     cleans up a partially mapped segment *)
  let rollback ~heap ~stack =
    (match stack with
    | Some stack_base ->
      ignore (Vmem.Addr_space.munmap aspace ~addr:stack_base ~len:stack_len)
    | None -> ());
    if heap then Vmem.Addr_space.reset_heap_base aspace;
    let image_len = (text_pages + data_pages) * Vmem.Addr.page_size in
    if image_len > 0 then
      ignore (Vmem.Addr_space.munmap aspace ~addr:text_base ~len:image_len);
    Error Errno.ENOMEM
  in
  match
    map_segment ~base:text_base ~pages:text_pages ~perm:Vmem.Perm.rx
      ~kind:(Vmem.Vma.Text { path = prog.Program.name })
      ~page0:0
  with
  | Error () -> rollback ~heap:false ~stack:None
  | Ok () -> (
    match
      map_segment ~base:data_base ~pages:data_pages ~perm:Vmem.Perm.rw
        ~kind:(Vmem.Vma.Data { path = prog.Program.name })
        ~page0:text_pages
    with
    | Error () -> rollback ~heap:false ~stack:None
    | Ok () -> (
      Vmem.Addr_space.set_heap_base aspace heap_base;
      let stack_top = stack_top_base - aslr_offset t in
      let stack_base = stack_top - stack_len in
      match
        Vmem.Addr_space.mmap ~addr:stack_base ~len:stack_len
          ~perm:Vmem.Perm.rw ~kind:Vmem.Vma.Stack aspace
      with
      | Error (`No_space | `Overlap | `Commit_limit | `Invalid) ->
        rollback ~heap:true ~stack:None
      | Ok _ -> (
        (* guard page below the stack: runaway growth faults instead of
           silently scribbling on whatever is mapped beneath *)
        match
          Vmem.Addr_space.mmap ~addr:(stack_base - Vmem.Addr.page_size)
            ~len:Vmem.Addr.page_size ~perm:Vmem.Perm.none ~kind:Vmem.Vma.Guard
            aspace
        with
        | Error (`No_space | `Overlap | `Commit_limit | `Invalid) ->
          rollback ~heap:true ~stack:(Some stack_base)
        | Ok _ -> Ok ())))

(* An empty address space on this machine, at an ASLR-drawn mmap base. *)
let fresh_aspace t =
  let mmap_base = mmap_base_floor + aslr_offset t in
  let aspace =
    Vmem.Addr_space.create ~mmap_base ~blame:t.blame ~frames:t.frames ~cost:t.cost ~tlb:t.tlb ()
  in
  Vmem.Addr_space.set_pager aspace t.pager;
  aspace

(* Build a fresh address space holding [prog]'s image. *)
let build_image t prog =
  let aspace = fresh_aspace t in
  match load_image t prog aspace with
  | Ok () -> Ok aspace
  | Error e ->
    Vmem.Addr_space.destroy aspace;
    Error e

(* ------------------------------------------------------------------ *)
(* Signals and process termination *)

let release_held = function
  | Parked p -> (
    match p.held with
    | Some ofd ->
      p.held <- None;
      Ofd.close ofd
    | None -> ())
  | _ -> ()

(* A thread parked in a syscall gives back the description it held
   before its process closes its fds, so pipe end counts at a kill are
   those of the fd tables alone; its waiter leaves at the next visit. *)
let retire_thread (proc : Proc.t) (th : Proc.thread) =
  if th.Proc.tstate <> Proc.Exited then begin
    proc.Proc.live <- proc.Proc.live - 1;
    match th.Proc.wait with
    | Some w ->
      release_held (Waitq.payload w);
      Waitq.wake w
    | None -> ()
  end;
  th.Proc.tstate <- Proc.Exited;
  th.Proc.entry <- None;
  th.Proc.pending <- None

(* Give up [proc]'s address space (exit or exec): hand a vfork borrow
   back to the parent, or drop the template deps and destroy an owned
   space. *)
let release_aspace t (proc : Proc.t) =
  if proc.Proc.vfork_active then Proc.release_vfork proc
  else begin
    release_tpl_deps t proc;
    Vmem.Addr_space.destroy proc.Proc.aspace
  end

let rec post_signal t (proc : Proc.t) sig_ =
  if Proc.is_alive proc then begin
    if Usignal.catchable sig_ && Usignal.Set.mem sig_ proc.Proc.sigmask then
      proc.Proc.sigpending <- Usignal.Set.add sig_ proc.Proc.sigpending
    else deliver_signal t proc sig_
  end

and deliver_signal t proc sig_ =
  let disp =
    if Usignal.catchable sig_ then Proc.disposition proc sig_
    else Usignal.Default
  in
  match disp with
  | Usignal.Ignored -> ()
  | Usignal.Handler name -> Proc.count_handler_run proc name
  | Usignal.Default -> (
    match Usignal.default_action sig_ with
    | Usignal.Ignore_sig | Usignal.Stop | Usignal.Continue -> ()
    | Usignal.Terminate -> kill_process t proc (Types.Killed sig_))

and kill_process t (proc : Proc.t) status =
  if Proc.is_alive proc then begin
    proc.Proc.pstate <- Proc.Zombie status;
    Hashtbl.remove t.alarms proc.Proc.pid;
    List.iter (retire_thread proc) proc.Proc.threads;
    Fd_table.close_all proc.Proc.fdt;
    List.iter
      (fun (r : Vfs.regular) ->
        if r.Vfs.lock_owner = Some proc.Proc.pid then r.Vfs.lock_owner <- None)
      proc.Proc.held_locks;
    proc.Proc.held_locks <- [];
    release_aspace t proc;
    (* orphans go to init (pid 1) *)
    let init = find_proc t 1 in
    List.iter
      (fun cpid ->
        match find_proc t cpid with
        | None -> ()
        | Some child -> (
          child.Proc.parent <- 1;
          match init with
          | Some ip when Proc.is_alive ip -> Proc.adopt_orphan ip cpid
          | Some _ | None -> (
            (* no live init: auto-reap terminated orphans *)
            match child.Proc.pstate with
            | Proc.Zombie st -> child.Proc.pstate <- Proc.Reaped st
            | Proc.Alive | Proc.Reaped _ -> ())))
      proc.Proc.children;
    proc.Proc.children <- [];
    match find_proc t proc.Proc.parent with
    | Some parent when Proc.is_alive parent ->
      Proc.child_exited parent;
      post_signal t parent Usignal.SIGCHLD
    | Some _ | None -> proc.Proc.pstate <- Proc.Reaped status
  end

(* ------------------------------------------------------------------ *)
(* The Demand-policy OOM killer *)

(* Victim choice when a first-touch fault cannot be backed: the largest
   resident process — biggest instant relief, the dominant term of every
   real badness heuristic — excluding the faulter (killing it would turn
   a recoverable stall into a self-inflicted crash), init, and
   vfork-paused parents (their space is on loan; killing them frees
   nothing). Ties break toward the lowest pid. *)
let oom_victim t ~faulter =
  Hashtbl.fold
    (fun pid p best ->
      if
        pid = faulter || pid = 1 || not (Proc.is_alive p)
        || p.Proc.vfork_active
      then best
      else
        let r = Vmem.Addr_space.resident_pages p.Proc.aspace in
        match best with
        | Some (_, br) when br > r -> best
        | Some (bpid, br) when br = r && bpid < pid -> best
        | _ -> Some (pid, r))
    t.procs None

(* Under [Demand] the commit-time check was waived, so the reckoning
   happens here: an un-backable touch kills a victim and retries instead
   of bouncing ENOMEM to the toucher, surfacing failure only once no
   victim is left. Other policies (and non-memory faults) pass straight
   through. *)
let rec touch_with_oom t (proc : Proc.t) ~addr ~len =
  match Vmem.Addr_space.touch_range proc.Proc.aspace ~addr ~len with
  | Error `Out_of_memory
    when Vmem.Frame.policy t.frames = Vmem.Frame.Demand -> (
    match oom_victim t ~faulter:proc.Proc.pid with
    | None -> Error `Out_of_memory
    | Some (victim_pid, _) ->
      (match find_proc t victim_pid with
      | Some victim ->
        Kstat.on_oom_kill t.kstat ~pid:victim_pid;
        kill_process t victim (Types.Killed Usignal.SIGKILL)
      | None -> ());
      touch_with_oom t proc ~addr ~len)
  | r -> r

(* ------------------------------------------------------------------ *)
(* Opening files *)

let console_flags =
  { Types.o_rdwr with Types.create = false; trunc = false }

let make_console_ofd t = Ofd.make (Ofd.Console (Vfs.console_buffer t.vfs)) ~flags:console_flags

let do_open t (proc : Proc.t) path flags =
  if flags.Types.create then
    match Vfs.create_file t.vfs ~cwd:proc.Proc.cwd path ~trunc:flags.Types.trunc with
    | Error e -> Error e
    | Ok r -> Ok (Ofd.make (Ofd.Reg_file r) ~flags)
  else
    match Vfs.resolve t.vfs ~cwd:proc.Proc.cwd path with
    | Error e -> Error e
    | Ok (Vfs.Reg r) ->
      if flags.Types.trunc && flags.Types.write then Vfs.Reg.truncate r;
      Ok (Ofd.make (Ofd.Reg_file r) ~flags)
    | Ok (Vfs.Console buf) -> Ok (Ofd.make (Ofd.Console buf) ~flags)
    | Ok (Vfs.Dir _) ->
      if flags.Types.write then Error Errno.EISDIR else Error Errno.EACCES

(* Give [ofd] the lowest free fd, or release it when the table is full
   (open, socket, accept). *)
let install_fd (proc : Proc.t) ~cloexec ofd =
  match Fd_table.alloc proc.Proc.fdt ~cloexec ofd with
  | Ok fd -> Ok fd
  | Error e ->
    Ofd.close ofd;
    Error e

(* ------------------------------------------------------------------ *)
(* Process creation *)

let new_thread t proc ~is_main body =
  let th = Proc.make_thread ~tid:(fresh_tid t) ~owner:proc.Proc.pid ~is_main body in
  (* round-robin placement: deterministic, and it spreads a fork storm
     across every CPU, which is what makes the shootdown study honest *)
  th.Proc.cpu <- t.rr mod Array.length t.runqs;
  t.rr <- t.rr + 1;
  proc.Proc.threads <- th :: proc.Proc.threads;
  proc.Proc.live <- proc.Proc.live + 1;
  enqueue t th;
  th

(* The child's copy of an fd table (fork, spawn, template freeze and
   zygote spawn), charged per inherited descriptor. *)
let clone_fds t fdt =
  let fdt = Fd_table.clone fdt in
  Vmem.Cost.charge t.cost Fd_inherit
    ((params t).Vmem.Cost.fd_clone *. float_of_int (Fd_table.count fdt));
  fdt

(* Enter a new process in the pid table as [parent]'s child. *)
let adopt t (parent : Proc.t) (child : Proc.t) =
  Hashtbl.replace t.procs child.Proc.pid child;
  parent.Proc.children <- child.Proc.pid :: parent.Proc.children

(* The exec rule for signal dispositions, from the image [src] ran to
   the one [dst] starts: ignored signals stay ignored, caught ones reset
   to default. *)
let exec_dispositions ~(src : Proc.t) (dst : Proc.t) =
  List.iter
    (fun s ->
      match Proc.disposition src s with
      | Usignal.Ignored -> Proc.set_disposition dst s Usignal.Ignored
      | Usignal.Handler _ -> Proc.set_disposition dst s Usignal.Default
      | Usignal.Default -> ())
    Usignal.all

(* Shared plumbing of fork and vfork: everything except the address
   space. Implements the POSIX inheritance matrix: dispositions and mask
   copied, pending signals cleared, only the calling thread, mutex memory
   copied verbatim, alarms and file locks NOT inherited. *)
let make_forked_child t (parent : Proc.t) ~aspace ~body =
  Vmem.Cost.charge t.cost Proc_create (params t).Vmem.Cost.proc_create;
  let fdt = clone_fds t parent.Proc.fdt in
  let child =
    Proc.make ~pid:(fresh_pid t) ~parent:parent.Proc.pid ~aspace ~fdt
      ~cwd:parent.Proc.cwd ~program:parent.Proc.program
  in
  Array.blit parent.Proc.sigdisp 0 child.Proc.sigdisp 0
    (Array.length parent.Proc.sigdisp);
  child.Proc.sigmask <- parent.Proc.sigmask;
  child.Proc.mutexes <- Sync.clone_table parent.Proc.mutexes;
  child.Proc.atfork <- parent.Proc.atfork;
  adopt t parent child;
  ignore (new_thread t child ~is_main:true body);
  child

let do_fork t (parent : Proc.t) ~eager body =
  let clone =
    if eager then Vmem.Addr_space.clone_eager else Vmem.Addr_space.clone_cow
  in
  match clone parent.Proc.aspace with
  | Error (`Commit_limit | `Out_of_memory) -> Error Errno.ENOMEM
  | Ok aspace ->
    let child = make_forked_child t parent ~aspace ~body in
    (* the child's clone keeps mapping any template pages the parent
       mapped, so it holds the same template deps *)
    child.Proc.tpl_deps <- parent.Proc.tpl_deps;
    acquire_tpl_deps t child.Proc.tpl_deps;
    Ok child.Proc.pid

let do_vfork t (parent : Proc.t) body =
  (* the child borrows the parent's address space: no copy at all *)
  let child = make_forked_child t parent ~aspace:parent.Proc.aspace ~body in
  child.Proc.vfork_active <- true;
  Ok child.Proc.pid

let apply_file_action t (child : Proc.t) action =
  match action with
  | Types.Fa_close fd -> Fd_table.close child.Proc.fdt fd
  | Types.Fa_dup2 (src, dst) ->
    if src = dst then
      (* POSIX: a spawn dup2 action with equal fds clears FD_CLOEXEC
         (unlike the dup2 syscall, which would be a no-op) *)
      Fd_table.set_cloexec child.Proc.fdt dst false
    else
      Result.map (fun (_ : Types.fd) -> ())
        (Fd_table.dup2 child.Proc.fdt ~src ~dst)
  | Types.Fa_open { fd; path; flags } -> (
    match do_open t child path flags with
    | Error e -> Error e
    | Ok ofd -> (
      (* ensure the description lands exactly at [fd] *)
      (match Fd_table.close child.Proc.fdt fd with Ok () | Error _ -> ());
      match Fd_table.alloc child.Proc.fdt ~at_least:fd ~cloexec:flags.Types.cloexec ofd with
      | Ok got when got = fd -> Ok ()
      | Ok got ->
        ignore (Fd_table.close child.Proc.fdt got);
        Error Errno.EMFILE
      | Error e ->
        Ofd.close ofd;
        Error e))

let do_spawn t (parent : Proc.t) (req : Types.spawn_req) =
  match find_program t req.Types.path with
  | None -> Error Errno.ENOENT (* reported synchronously, unlike fork+exec *)
  | Some prog -> (
    Vmem.Cost.charge t.cost Proc_create (params t).Vmem.Cost.proc_create;
    match build_image t prog with
    | Error e -> Error e
    | Ok aspace -> (
      let fdt = clone_fds t parent.Proc.fdt in
      let child =
        Proc.make ~pid:(fresh_pid t) ~parent:parent.Proc.pid ~aspace ~fdt
          ~cwd:parent.Proc.cwd ~program:prog.Program.name
      in
      (* signal setup: exec semantics, unless the attributes ask for the
         wholesale reset the child already starts from *)
      if not req.Types.attr.Types.reset_signals then
        exec_dispositions ~src:parent child;
      child.Proc.sigmask <-
        (match req.Types.attr.Types.mask with
        | Some m -> m
        | None -> parent.Proc.sigmask);
      let rec apply = function
        | [] -> Ok ()
        | action :: rest -> (
          match apply_file_action t child action with
          | Ok () -> apply rest
          | Error e -> Error e)
      in
      match apply req.Types.file_actions with
      | Error e ->
        Fd_table.close_all child.Proc.fdt;
        Vmem.Addr_space.destroy child.Proc.aspace;
        Error e
      | Ok () ->
        Fd_table.close_cloexec child.Proc.fdt;
        adopt t parent child;
        ignore
          (new_thread t child ~is_main:true
             (prog.Program.main ~argv:req.Types.argv));
        Ok child.Proc.pid))

let do_exec t (proc : Proc.t) (th : Proc.thread) path argv =
  match find_program t path with
  | None -> Error Errno.ENOENT
  | Some prog -> (
    match build_image t prog with
    | Error e -> Error e
    | Ok aspace ->
      (* only the calling thread survives *)
      List.iter
        (fun (other : Proc.thread) ->
          if other.Proc.tid <> th.Proc.tid then retire_thread proc other)
        proc.Proc.threads;
      proc.Proc.threads <- [ th ];
      release_aspace t proc;
      proc.Proc.aspace <- aspace;
      exec_dispositions ~src:proc proc;
      Fd_table.close_cloexec proc.Proc.fdt;
      (* mutex memory and atfork registrations die with the old image *)
      proc.Proc.mutexes <- Sync.create_table ();
      proc.Proc.atfork <- [];
      proc.Proc.program <- prog.Program.name;
      Ok (prog.Program.main ~argv))

(* ------------------------------------------------------------------ *)
(* The syscall engine *)

(* [Block] is a syscall that may have to wait. The dispatcher runs
   [check] right away; while it returns [None], the caller stays parked
   on the queues [on], and [check] re-runs whenever one of them is
   kicked. [deadline] is the tick at which [check] gives up on its own
   (a poll's timeout), and [held] the description a read or write keeps
   open while it waits. *)
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

let try_wait t (proc : Proc.t) target =
  let candidates =
    match target with
    | Types.Any_child -> proc.Proc.children
    | Types.Child pid -> if List.mem pid proc.Proc.children then [ pid ] else []
  in
  if candidates = [] then `No_children
  else begin
    let zombie =
      List.find_map
        (fun pid ->
          match find_proc t pid with
          | Some ({ Proc.pstate = Proc.Zombie st; _ } as child) ->
            Some (child, st)
          | Some _ -> None
          | None -> None)
        candidates
    in
    match zombie with
    | Some (child, st) ->
      Proc.reap proc child st;
      `Got (child.Proc.pid, st)
    | None -> `Wait
  end

let find_mutex (proc : Proc.t) id = Sync.find proc.Proc.mutexes id

let regular_of_fd (proc : Proc.t) fd =
  match Fd_table.get proc.Proc.fdt fd with
  | Error e -> Error e
  | Ok ofd -> (
    match Ofd.backing ofd with
    | Ofd.Reg_file r -> Ok r
    | Ofd.Console _ | Ofd.Pipe_read _ | Ofd.Pipe_write _ | Ofd.Null
    | Ofd.Socket _ ->
      Error Errno.EINVAL)

let socket_of_fd (proc : Proc.t) fd =
  match Fd_table.get proc.Proc.fdt fd with
  | Error e -> Error e
  | Ok ofd -> (
    match Ofd.backing ofd with
    | Ofd.Socket sk -> Ok sk
    | Ofd.Reg_file _ | Ofd.Console _ | Ofd.Pipe_read _ | Ofd.Pipe_write _
    | Ofd.Null ->
      (* not a socket: EINVAL (we carry no ENOTSOCK) *)
      Error Errno.EINVAL)

(* Sockets are bidirectional and never create/truncate anything. *)
let sock_flags =
  {
    Types.read = true;
    write = true;
    append = false;
    create = false;
    trunc = false;
    cloexec = false;
  }

(* One fd's poll readiness, POSIX-flavored: POLLHUP when the read side
   is at EOF with no writers left, POLLERR when the write side has no
   readers (writes would EPIPE) — both reported regardless of the
   subscription. Regular files, console and null are always ready, like
   poll(2) on anything that isn't a pipe/socket/tty. *)
let poll_ready (i : Types.poll_interest) ofd =
  let readable p = Pipe.available p > 0 || Pipe.eof p in
  let r_in, r_out, r_hup, r_err =
    match Ofd.backing ofd with
    | Ofd.Pipe_read p -> (readable p, false, Pipe.eof p, false)
    | Ofd.Pipe_write p ->
      (false, Pipe.space p > 0 && not (Pipe.broken p), false, Pipe.broken p)
    | Ofd.Socket sk -> (
      match Socket.state sk with
      | Socket.Listening { pending; _ } ->
        (* a listener is "readable" when accept would not block *)
        (Queue.length pending > 0, false, false, false)
      | Socket.Connected { conn; role } ->
        let rp = Socket.read_pipe conn role in
        let wp = Socket.write_pipe conn role in
        ( readable rp,
          Pipe.space wp > 0 && not (Pipe.broken wp),
          Pipe.eof rp,
          Pipe.broken wp )
      | Socket.Fresh | Socket.Bound _ | Socket.Closed ->
        (false, false, false, true))
    | Ofd.Reg_file _ | Ofd.Console _ | Ofd.Null -> (true, true, false, false)
  in
  let pr_in = i.Types.pi_in && r_in in
  let pr_out = i.Types.pi_out && r_out in
  if pr_in || pr_out || r_hup || r_err then
    Some
      {
        Types.pr_fd = i.Types.pi_fd;
        pr_in;
        pr_out;
        pr_hup = r_hup;
        pr_err = r_err;
      }
  else None

(* The queues a parked poll on [ofd] waits on: those of every pipe its
   readiness reads, or a listener's. *)
let poll_waiters ofd =
  match Ofd.backing ofd with
  | Ofd.Pipe_read p | Ofd.Pipe_write p -> [ Pipe.poll_waiters p ]
  | Ofd.Socket sk -> (
    match Socket.state sk with
    | Socket.Listening { poll_waiters; _ } -> [ poll_waiters ]
    | Socket.Connected { conn; role } ->
      [
        Pipe.poll_waiters (Socket.read_pipe conn role);
        Pipe.poll_waiters (Socket.write_pipe conn role);
      ]
    | Socket.Fresh | Socket.Bound _ | Socket.Closed -> [])
  | Ofd.Reg_file _ | Ofd.Console _ | Ofd.Null -> []

let mem_errno = function
  | `Segfault -> Errno.EFAULT
  | `Perm_denied -> Errno.EACCES
  | `Out_of_memory -> Errno.ENOMEM

let write_into aspace addr data =
  Result.map_error mem_errno (Vmem.Addr_space.write_bytes aspace ~addr data)

(* An embryo is an alive child of [proc] that has no threads yet (made by
   Pb_create, not yet started). Cross-process operations may only target
   the caller's own embryos. *)
let embryo_of t (proc : Proc.t) pid =
  match find_proc t pid with
  | None -> Error Errno.ESRCH
  | Some child ->
    if not (List.mem pid proc.Proc.children) then Error Errno.EPERM
    else if not (Proc.is_alive child) then Error Errno.ESRCH
    else if child.Proc.threads <> [] then Error Errno.EINVAL
    else Ok child

let count_fds (proc : Proc.t) ~surviving_exec =
  let n = ref 0 in
  Fd_table.iter proc.Proc.fdt (fun fd _ ~cloexec ->
      if fd > 2 && ((not surviving_exec) || not cloexec) then incr n);
  !n

(* The typed detail of a traced request, consumed by {!Lint}, the span
   tree and the exporters: live thread count at fork time, cloexec state
   at open, fds that would survive an exec, fds still open at exit, and
   the ids a request names. *)
let annotations : type a. Proc.t -> a Sysreq.t -> Trace.detail =
 fun proc req ->
  match req with
  | Sysreq.Fork _ | Sysreq.Fork_eager _ | Sysreq.Vfork _ ->
    Trace.D_fork { live_threads = proc.Proc.live }
  | Sysreq.Open (path, flags) ->
    Trace.D_open { path; cloexec = flags.Types.cloexec }
  | Sysreq.Exec _ ->
    Trace.D_exec { inherited_fds = count_fds proc ~surviving_exec:true }
  | Sysreq.Exit _ ->
    Trace.D_exit { open_fds = count_fds proc ~surviving_exec:false }
  | Sysreq.Template_spawn { tpl; _ } -> Trace.D_tpl { tpl }
  | Sysreq.Template_discard tpl -> Trace.D_tpl { tpl }
  | Sysreq.Mutex_lock mutex | Sysreq.Mutex_unlock mutex
  | Sysreq.Mutex_trylock mutex ->
    Trace.D_mutex { mutex }
  | Sysreq.Bind (_, port) | Sysreq.Connect (_, port) -> Trace.D_port { port }
  | Sysreq.Listen { backlog; _ } -> Trace.D_listen { backlog }
  | Sysreq.Poll { interests; timeout } ->
    Trace.D_poll { nfds = List.length interests; timeout }
  | _ -> Trace.D_none

let now_ns t = Vmem.Cost.cycles_to_ns (Vmem.Cost.total t.cost)

(* Blame-ledger plumbing. Every creation-shaped request allocates a
   ledger event and runs its handler under that event's Sync context:
   the setup half of the bill (page-table walk, VMA clones, PCB, fd
   table, shootdown) lands on the event immediately. The deferred half
   — COW breaks induced by the sharing it created — arrives later via
   the address spaces' blame origins (see Addr_space.set_blame_origin).
   A failed creation keeps its ledger row, flagged. *)
let creation_blame t ~style ~parent f =
  let ev = Vmem.Blame.new_event t.blame ~style ~parent in
  let r = Vmem.Blame.with_context t.blame ~id:ev Vmem.Blame.Sync f in
  (match r with
  | Ok _ -> ()
  | Error _ -> Vmem.Blame.mark_failed t.blame ev);
  (ev, r)

(* Every process-creating request runs through here: [f] builds the
   child under a fresh ledger event, and a child it made is recorded on
   that event, handed to [on_child] with the event id (origin stamps,
   tags), and — when tracing — announced by a ["<trace_style>_child"]
   instant, so a trace replay can attribute the child's subsequent
   events to the creation style that made it. *)
let create_child t (proc : Proc.t) (th : Proc.thread) ~style
    ?(trace_style = style) ?(on_child = fun _ _ -> ()) f =
  let ev, r = creation_blame t ~style ~parent:proc.Proc.pid f in
  (match r with
  | Error _ -> ()
  | Ok child -> (
    Vmem.Blame.set_child t.blame ev ~child;
    on_child ev child;
    match t.trace with
    | None -> ()
    | Some tr ->
      Trace.record tr ~tick:t.clock ~pid:proc.Proc.pid ~tid:th.Proc.tid
        (trace_style ^ "_child")
        ~detail:(Trace.D_child { child; style = trace_style })
        ~ts_ns:(now_ns t) ?cpu:(cpu_of t th)));
  r

let stamp_child_origin t ev child =
  match find_proc t child with
  | Some c -> Vmem.Addr_space.set_blame_origin c.Proc.aspace ev
  | None -> ()

(* Process-builder operations after Pb_create keep charging the embryo's
   creation event: the builder spreads creation cost over several
   syscalls, and the ledger reassembles the total. *)
let builder_blame t pid f =
  match Vmem.Blame.event_of_child t.blame pid with
  | Some ev -> Vmem.Blame.with_context t.blame ~id:ev Vmem.Blame.Sync f
  | None -> f ()

let attempt : type a. t -> Proc.t -> Proc.thread -> a Sysreq.t -> a action =
 fun t proc th req ->
  match req with
  | Sysreq.Getpid -> Reply proc.Proc.pid
  | Sysreq.Getppid -> Reply proc.Proc.parent
  | Sysreq.Gettid -> Reply th.Proc.tid
  | Sysreq.Fork body ->
    Reply
      (create_child t proc th ~style:"fork"
         ~on_child:(fun ev child ->
           (* a COW fork re-downgrades every resident private page on
              BOTH sides, so this event becomes the newest sharing
              origin of parent and child alike *)
           Vmem.Addr_space.set_blame_origin proc.Proc.aspace ev;
           stamp_child_origin t ev child)
         (fun () -> do_fork t proc ~eager:false body))
  | Sysreq.Fork_eager body ->
    (* eager copies up front: no COW sharing, so no origin to stamp; a
       trace replays the child as a plain fork's *)
    Reply
      (create_child t proc th ~style:"fork_eager" ~trace_style:"fork"
         (fun () -> do_fork t proc ~eager:true body))
  | Sysreq.Vfork body -> (
    match
      create_child t proc th ~style:"vfork" (fun () -> do_vfork t proc body)
    with
    | Error e -> Reply (Error e)
    | Ok child_pid -> (
      (* the parent thread blocks until the child execs or exits *)
      match find_proc t child_pid with
      | None -> Reply (Ok child_pid)
      | Some child ->
        block [ child.Proc.vfork_waiters ] (fun () ->
            if child.Proc.vfork_active && Proc.is_alive child then None
            else Some (Ok child_pid))))
  | Sysreq.Spawn req ->
    (* spawn builds a fresh image: no sharing, hence no deferred bill —
       exactly the paper's point, now visible as an empty column *)
    Reply
      (create_child t proc th ~style:"spawn" (fun () -> do_spawn t proc req))
  | Sysreq.Exec { path; argv } -> (
    match do_exec t proc th path argv with
    | Error e -> Reply (Error e)
    | Ok body ->
      (* restart this thread at the new image's entry point *)
      th.Proc.entry <- Some (Proc.Start body);
      th.Proc.tstate <- Proc.Ready;
      enqueue t th;
      Die)
  | Sysreq.Exit code ->
    kill_process t proc (Types.Exited code);
    Die
  | Sysreq.Waitpid target ->
    block [ proc.Proc.waitpid_waiters ] (fun () ->
        match try_wait t proc target with
        | `Got r -> Some (Ok r)
        | `No_children -> Some (Error Errno.ECHILD)
        | `Wait -> None)
  | Sysreq.Kill (pid, sig_) -> (
    match find_proc t pid with
    | Some target when Proc.is_alive target ->
      post_signal t target sig_;
      Reply (Ok ())
    | Some _ | None -> Reply (Error Errno.ESRCH))
  | Sysreq.Sigaction (sig_, disp) ->
    if not (Usignal.catchable sig_) then Reply (Error Errno.EINVAL)
    else begin
      let old = Proc.disposition proc sig_ in
      Proc.set_disposition proc sig_ disp;
      Reply (Ok old)
    end
  | Sysreq.Sigprocmask (op, set) ->
    let old = proc.Proc.sigmask in
    let set =
      (* SIGKILL/SIGSTOP cannot be blocked *)
      Usignal.Set.inter set Usignal.Set.full
    in
    let updated =
      match op with
      | Types.Block -> Usignal.Set.union old set
      | Types.Unblock -> Usignal.Set.diff old set
      | Types.Set_mask -> set
    in
    proc.Proc.sigmask <- updated;
    (* deliver anything newly unblocked *)
    let deliverable = Usignal.Set.diff proc.Proc.sigpending updated in
    proc.Proc.sigpending <- Usignal.Set.inter proc.Proc.sigpending updated;
    List.iter (deliver_signal t proc) (Usignal.Set.to_list deliverable);
    Reply old
  | Sysreq.Alarm ticks ->
    let remaining =
      match Hashtbl.find_opt t.alarms proc.Proc.pid with
      | Some at -> max 0 (at - t.clock)
      | None -> 0
    in
    if ticks = 0 then Hashtbl.remove t.alarms proc.Proc.pid
    else Hashtbl.replace t.alarms proc.Proc.pid (t.clock + ticks);
    Reply remaining
  | Sysreq.Open (path, flags) ->
    Reply
      (Result.bind (do_open t proc path flags)
         (install_fd proc ~cloexec:flags.Types.cloexec))
  | Sysreq.Close fd -> Reply (Fd_table.close proc.Proc.fdt fd)
  | Sysreq.Read (fd, n) -> (
    match Fd_table.get proc.Proc.fdt fd with
    | Error e -> Reply (Error e)
    | Ok ofd ->
      let on =
        match Ofd.source ofd with Some p -> [ Pipe.read_waiters p ] | None -> []
      in
      block on ~held:ofd (fun () ->
          match Ofd.read ofd n with
          | Ofd.Data s -> Some (Ok s)
          | Ofd.End_of_file -> Some (Ok "")
          | Ofd.Fail e -> Some (Error e)
          | Ofd.Retry -> None))
  | Sysreq.Write (fd, data) -> (
    match Fd_table.get proc.Proc.fdt fd with
    | Error e -> Reply (Error e)
    | Ok ofd ->
      let on =
        match Ofd.sink ofd with Some p -> [ Pipe.write_waiters p ] | None -> []
      in
      block on ~held:ofd (fun () ->
          match Ofd.write ofd data with
          | Ofd.Wrote n -> Some (Ok n)
          | Ofd.Fail_write e -> Some (Error e)
          | Ofd.Broken_pipe ->
            post_signal t proc Usignal.SIGPIPE;
            Some (Error Errno.EPIPE)
          | Ofd.Retry_write -> None))
  | Sysreq.Dup fd -> Reply (Fd_table.dup proc.Proc.fdt fd)
  | Sysreq.Dup2 { src; dst } -> Reply (Fd_table.dup2 proc.Proc.fdt ~src ~dst)
  | Sysreq.Set_cloexec (fd, v) -> Reply (Fd_table.set_cloexec proc.Proc.fdt fd v)
  | Sysreq.Pipe -> (
    let pipe = Pipe.create () in
    let rofd = Ofd.make (Ofd.Pipe_read pipe) ~flags:Types.o_rdonly in
    let wofd =
      Ofd.make (Ofd.Pipe_write pipe)
        ~flags:{ Types.o_wronly with Types.create = false; trunc = false }
    in
    match Fd_table.alloc proc.Proc.fdt ~cloexec:false rofd with
    | Error e ->
      Ofd.close rofd;
      Ofd.close wofd;
      Reply (Error e)
    | Ok rfd -> (
      match Fd_table.alloc proc.Proc.fdt ~cloexec:false wofd with
      | Error e ->
        ignore (Fd_table.close proc.Proc.fdt rfd);
        Ofd.close wofd;
        Reply (Error e)
      | Ok wfd -> Reply (Ok (rfd, wfd))))
  | Sysreq.Try_lock fd -> (
    match regular_of_fd proc fd with
    | Error e -> Reply (Error e)
    | Ok r -> (
      match r.Vfs.lock_owner with
      | None ->
        r.Vfs.lock_owner <- Some proc.Proc.pid;
        proc.Proc.held_locks <- r :: proc.Proc.held_locks;
        Reply (Ok ())
      | Some owner when owner = proc.Proc.pid -> Reply (Ok ())
      | Some _ -> Reply (Error Errno.EAGAIN)))
  | Sysreq.Unlock fd -> (
    match regular_of_fd proc fd with
    | Error e -> Reply (Error e)
    | Ok r -> (
      match r.Vfs.lock_owner with
      | Some owner when owner = proc.Proc.pid ->
        r.Vfs.lock_owner <- None;
        proc.Proc.held_locks <-
          List.filter (fun held -> held != r) proc.Proc.held_locks;
        Reply (Ok ())
      | Some _ -> Reply (Error Errno.EPERM)
      | None -> Reply (Error Errno.EINVAL)))
  | Sysreq.Mmap { len; perm } -> (
    match
      Vmem.Addr_space.mmap ~len ~perm ~kind:Vmem.Vma.Anon proc.Proc.aspace
    with
    | Ok addr -> Reply (Ok addr)
    | Error (`No_space | `Commit_limit) -> Reply (Error Errno.ENOMEM)
    | Error (`Overlap | `Invalid) -> Reply (Error Errno.EINVAL))
  | Sysreq.Munmap { addr; len } -> (
    match Vmem.Addr_space.munmap proc.Proc.aspace ~addr ~len with
    | Ok () -> Reply (Ok ())
    | Error `Invalid -> Reply (Error Errno.EINVAL))
  | Sysreq.Brk request -> (
    match request with
    | None -> Reply (Ok (Vmem.Addr_space.brk proc.Proc.aspace))
    | Some addr -> (
      match
        Vmem.Addr_space.set_brk proc.Proc.aspace (Vmem.Addr.align_up addr)
      with
      | Ok () -> Reply (Ok (Vmem.Addr_space.brk proc.Proc.aspace))
      | Error (`Commit_limit | `Overlap) -> Reply (Error Errno.ENOMEM)
      | Error `Invalid -> Reply (Error Errno.EINVAL)))
  | Sysreq.Mem_read { addr; len } ->
    if len < 0 then Reply (Error Errno.EINVAL)
    else
      Reply
        (Result.map_error mem_errno
           (Vmem.Addr_space.read_bytes proc.Proc.aspace ~addr ~len))
  | Sysreq.Mem_write { addr; data } ->
    Reply (write_into proc.Proc.aspace addr data)
  | Sysreq.Touch { addr; len } -> (
    match touch_with_oom t proc ~addr ~len with
    | Ok pages -> Reply (Ok pages)
    | Error e -> Reply (Error (mem_errno e)))
  | Sysreq.Thread_create body ->
    let thread = new_thread t proc ~is_main:false body in
    Reply (Ok thread.Proc.tid)
  | Sysreq.Mutex_create -> Reply (Sync.create proc.Proc.mutexes).Sync.id
  | Sysreq.Mutex_lock id -> (
    match find_mutex proc id with
    | None -> Reply (Error Errno.EINVAL)
    | Some m ->
      block [ m.Sync.waiters ] (fun () ->
          match m.Sync.state with
          | Sync.Unlocked ->
            m.Sync.state <- Sync.Locked_by th.Proc.tid;
            Some (Ok ())
          | Sync.Locked_by owner when owner = th.Proc.tid ->
            Some (Error Errno.EDEADLK)
          | Sync.Locked_by _ -> None))
  | Sysreq.Mutex_unlock id -> (
    match find_mutex proc id with
    | None -> Reply (Error Errno.EINVAL)
    | Some m -> (
      match m.Sync.state with
      | Sync.Locked_by owner when owner = th.Proc.tid ->
        Sync.unlock m;
        Reply (Ok ())
      | Sync.Locked_by _ -> Reply (Error Errno.EPERM)
      | Sync.Unlocked -> Reply (Error Errno.EINVAL)))
  | Sysreq.Mutex_trylock id -> (
    match find_mutex proc id with
    | None -> Reply (Error Errno.EINVAL)
    | Some m -> (
      match m.Sync.state with
      | Sync.Unlocked ->
        m.Sync.state <- Sync.Locked_by th.Proc.tid;
        Reply (Ok ())
      | Sync.Locked_by owner when owner = th.Proc.tid -> Reply (Ok ())
      | Sync.Locked_by _ -> Reply (Error Errno.EAGAIN)))
  | Sysreq.Mutex_reinit id -> (
    match find_mutex proc id with
    | None -> Reply (Error Errno.EINVAL)
    | Some m ->
      Sync.unlock m;
      Reply (Ok ()))
  | Sysreq.Yield -> Reply ()
  | Sysreq.Handled_signals name -> Reply (Proc.handler_runs proc name)
  | Sysreq.Chdir path -> (
    match Vfs.resolve t.vfs ~cwd:proc.Proc.cwd path with
    | Ok (Vfs.Dir _) ->
      proc.Proc.cwd <-
        "/" ^ String.concat "/" (Vfs.normalize ~cwd:proc.Proc.cwd path);
      Reply (Ok ())
    | Ok (Vfs.Reg _ | Vfs.Console _) -> Reply (Error Errno.ENOTDIR)
    | Error e -> Reply (Error e))
  | Sysreq.Getcwd -> Reply proc.Proc.cwd
  | Sysreq.Atfork_register handlers ->
    proc.Proc.atfork <- proc.Proc.atfork @ [ handlers ];
    Reply ()
  | Sysreq.Atfork_list -> Reply proc.Proc.atfork
  | Sysreq.Pb_create ->
    Reply
      (create_child t proc th ~style:"builder" (fun () ->
           Vmem.Cost.charge t.cost Proc_create
             (params t).Vmem.Cost.proc_create;
           let aspace = fresh_aspace t in
           let child =
             Proc.make ~pid:(fresh_pid t) ~parent:proc.Proc.pid ~aspace
               ~fdt:(Fd_table.create ~max_fds:t.config.max_fds ())
               ~cwd:proc.Proc.cwd ~program:"<embryo>"
           in
           adopt t proc child;
           Ok child.Proc.pid))
  | Sysreq.Pb_map { pid; len; perm } -> (
    match embryo_of t proc pid with
    | Error e -> Reply (Error e)
    | Ok child -> (
      match
        builder_blame t pid (fun () ->
            Vmem.Addr_space.mmap ~len ~perm ~kind:Vmem.Vma.Anon
              child.Proc.aspace)
      with
      | Ok addr -> Reply (Ok addr)
      | Error (`No_space | `Commit_limit) -> Reply (Error Errno.ENOMEM)
      | Error (`Overlap | `Invalid) -> Reply (Error Errno.EINVAL)))
  | Sysreq.Pb_write { pid; addr; data } -> (
    match embryo_of t proc pid with
    | Error e -> Reply (Error e)
    | Ok child ->
      Reply (builder_blame t pid (fun () -> write_into child.Proc.aspace addr data)))
  | Sysreq.Pb_copy_fd { pid; src; dst } -> (
    match embryo_of t proc pid with
    | Error e -> Reply (Error e)
    | Ok child -> (
      match Fd_table.get proc.Proc.fdt src with
      | Error e -> Reply (Error e)
      | Ok ofd -> (
        builder_blame t pid (fun () ->
            Vmem.Cost.charge t.cost Fd_inherit (params t).Vmem.Cost.fd_clone);
        Ofd.incref ofd;
        match Fd_table.alloc child.Proc.fdt ~at_least:dst ~cloexec:false ofd with
        | Ok got when got = dst -> Reply (Ok ())
        | Ok got ->
          ignore (Fd_table.close child.Proc.fdt got);
          Reply (Error Errno.EINVAL)
        | Error e ->
          Ofd.close ofd;
          Reply (Error e))))
  | Sysreq.Pb_start { pid; path; argv } -> (
    match embryo_of t proc pid with
    | Error e -> Reply (Error e)
    | Ok child -> (
      match find_program t path with
      | None -> Reply (Error Errno.ENOENT)
      | Some prog -> (
        match
          builder_blame t pid (fun () ->
              load_image t prog child.Proc.aspace)
        with
        | Error e -> Reply (Error e)
        | Ok () ->
          child.Proc.program <- prog.Program.name;
          ignore
            (new_thread t child ~is_main:true (prog.Program.main ~argv));
          Reply (Ok ()))))
  | Sysreq.Stdio_flushed { bytes; inherited } ->
    Kstat.on_stdio_flush t.kstat ~bytes ~inherited;
    Reply ()
  | Sysreq.Template_freeze { pid } -> (
    let target =
      match pid with
      | None -> Ok proc
      | Some p -> (
        match find_proc t p with
        | Some tp when Proc.is_alive tp ->
          if List.mem p proc.Proc.children then Ok tp
          else Error Errno.EPERM (* only the parent may freeze a child *)
        | Some _ | None -> Error Errno.ESRCH)
    in
    match target with
    | Error e -> Reply (Error e)
    | Ok target ->
      if target.Proc.vfork_active then
        (* a borrowed address space is not this process's to seal *)
        Reply (Error Errno.EINVAL)
      else if not (Vmem.Addr_space.sole_owner target.Proc.aspace) then
        (* a COW sharer or an earlier template still holds frames of
           this image: pinning them would steal pages someone else
           counts on *)
        Reply (Error Errno.EBUSY)
      else if Vmem.Addr_space.pager_active target.Proc.aspace then
        (* unresolved pager-backed pages: sealing now would snapshot
           holes. Warm the image (touch it) and retry *)
        Reply (Error Errno.EAGAIN)
      else begin
        let ev, r =
          creation_blame t ~style:"freeze" ~parent:proc.Proc.pid (fun () ->
              let commit_pages =
                Vmem.Addr_space.committed_pages target.Proc.aspace
              in
              let aspace = Vmem.Addr_space.seal target.Proc.aspace in
              let fdt = clone_fds t target.Proc.fdt in
              let id = t.next_tpl in
              t.next_tpl <- id + 1;
              let tpl =
                Template.make ~id ~aspace ~commit_pages ~fdt
                  ~program:target.Proc.program ~cwd:target.Proc.cwd
                  ~sigdisp:(Array.copy target.Proc.sigdisp)
                  ~sigmask:target.Proc.sigmask ~source:target.Proc.pid
                  ~resident:(Vmem.Addr_space.resident_pages aspace)
              in
              Hashtbl.replace t.templates id tpl;
              (* the source keeps mapping the pinned frames until its own
                 address space dies *)
              target.Proc.tpl_deps <- id :: target.Proc.tpl_deps;
              tpl.Template.live_deps <- 1;
              Kstat.on_template_freeze t.kstat;
              Ok id)
        in
        (match r with
        | Error (_ : Errno.t) -> ()
        | Ok id ->
          Vmem.Blame.set_tag t.blame ev (Printf.sprintf "tpl:%d" id);
          (* the freeze downgraded the source's writable pages to COW
             against the pinned template frames: its later writes are
             this event's deferred bill *)
          Vmem.Addr_space.set_blame_origin target.Proc.aspace ev);
        Reply r
      end)
  | Sysreq.Template_spawn { tpl; body } -> (
    match find_template t tpl with
    | None -> Reply (Error Errno.EINVAL)
    | Some template ->
      Reply
        (create_child t proc th ~style:"zygote"
           ~on_child:(fun ev child ->
             Vmem.Blame.set_tag t.blame ev
               (Printf.sprintf "tpl:%d" template.Template.id);
             (* the child's writes COW away from the pinned template
                frames: charge those breaks to this spawn *)
             stamp_child_origin t ev child)
           (fun () ->
             (* the commit charge is the only fallible step and runs
                first, so a failed spawn leaves template and machine
                untouched *)
             match
               Vmem.Addr_space.clone_from_sealed template.Template.aspace
                 ~commit_pages:template.Template.commit_pages
             with
             | Error `Commit_limit -> Error Errno.ENOMEM
             | Ok (aspace, subtrees) ->
               Vmem.Cost.charge t.cost Proc_create
                 (params t).Vmem.Cost.proc_create;
               let fdt = clone_fds t template.Template.fdt in
               let child =
                 Proc.make ~pid:(fresh_pid t) ~parent:proc.Proc.pid ~aspace
                   ~fdt ~cwd:template.Template.cwd
                   ~program:template.Template.program
               in
               Array.blit template.Template.sigdisp 0 child.Proc.sigdisp 0
                 (Array.length template.Template.sigdisp);
               child.Proc.sigmask <- template.Template.sigmask;
               child.Proc.tpl_deps <- [ template.Template.id ];
               template.Template.live_deps <- template.Template.live_deps + 1;
               template.Template.spawns <- template.Template.spawns + 1;
               adopt t proc child;
               ignore (new_thread t child ~is_main:true body);
               Kstat.on_template_spawn t.kstat ~subtrees
                 ~pages:template.Template.resident;
               Ok child.Proc.pid)))
  | Sysreq.Template_discard id -> (
    match find_template t id with
    | None -> Reply (Error Errno.EINVAL)
    | Some template ->
      if template.Template.live_deps > 0 then Reply (Error Errno.EBUSY)
      else begin
        Hashtbl.remove t.templates id;
        Template.destroy template;
        Reply (Ok ())
      end)
  | Sysreq.Socket ->
    Reply
      (install_fd proc ~cloexec:false
         (Ofd.make (Ofd.Socket (Socket.create ())) ~flags:sock_flags))
  | Sysreq.Bind (fd, port) -> (
    match socket_of_fd proc fd with
    | Error e -> Reply (Error e)
    | Ok sk -> (
      match Hashtbl.find_opt t.socks port with
      | Some holder when Socket.state holder <> Socket.Closed ->
        Reply (Error Errno.EADDRINUSE)
      | Some _ | None -> (
        match Socket.bind sk port with
        | Ok () ->
          Hashtbl.replace t.socks port sk;
          Reply (Ok ())
        | Error e -> Reply (Error e))))
  | Sysreq.Listen { fd; backlog } -> (
    match socket_of_fd proc fd with
    | Error e -> Reply (Error e)
    | Ok sk -> Reply (Socket.listen sk backlog))
  | Sysreq.Accept fd -> (
    match socket_of_fd proc fd with
    | Error e -> Reply (Error e)
    | Ok sk -> (
      match Socket.state sk with
      | Socket.Fresh | Socket.Bound _ | Socket.Connected _ | Socket.Closed
        ->
        Reply (Error Errno.EINVAL)
      | Socket.Listening { accept_waiters; _ } ->
        (* several accepters may park on one listener (the per-worker
           accept idiom) and the longest-parked one wins each
           connection, deterministically. A parked accept holds no
           reference: the listener's last close fails it. *)
        block [ accept_waiters ] (fun () ->
            match Socket.accept sk with
            | Some conn_sk ->
              (* a full fd table releases the adopted server endpoint:
                 the client sees EOF/EPIPE, not a connection leak *)
              let r =
                install_fd proc ~cloexec:false
                  (Ofd.make (Ofd.Socket conn_sk) ~flags:sock_flags)
              in
              if Result.is_ok r then
                Kstat.on_accept t.kstat ~pid:proc.Proc.pid;
              Some r
            | None -> (
              match Socket.state sk with
              | Socket.Listening _ -> None
              | Socket.Fresh | Socket.Bound _ | Socket.Connected _
              | Socket.Closed ->
                (* listener closed while we were parked *)
                Some (Error Errno.EINVAL)))))
  | Sysreq.Connect (fd, port) -> (
    match socket_of_fd proc fd with
    | Error e -> Reply (Error e)
    | Ok sk -> (
      match Hashtbl.find_opt t.socks port with
      | (Some _ | None) when Socket.state sk <> Socket.Fresh ->
        Reply (Error Errno.EINVAL)
      | Some srv when Socket.state srv <> Socket.Closed -> (
        let r = Socket.connect sk ~srv in
        Kstat.on_connect t.kstat
          ~refused:(r = Error Errno.ECONNREFUSED);
        match r with
        | Ok () ->
          (match Socket.backlog_depth srv with
          | Some depth -> Kstat.on_accept_queue t.kstat ~depth
          | None -> ());
          Reply (Ok ())
        | Error e -> Reply (Error e))
      | Some _ | None ->
        (* nobody (alive) listens on that port *)
        Kstat.on_connect t.kstat ~refused:true;
        Reply (Error Errno.ECONNREFUSED)))
  | Sysreq.Poll { interests; timeout } -> (
    let rec lookup acc = function
      | [] -> Ok (List.rev acc)
      | i :: rest -> (
        match Fd_table.get proc.Proc.fdt i.Types.pi_fd with
        | Error e -> Error e
        | Ok ofd -> lookup ((i, ofd) :: acc) rest)
    in
    match lookup [] interests with
    | Error e -> Reply (Error e)
    | Ok pairs ->
      (* a zero timeout's deadline is now, so the dispatcher's first
         check is the non-blocking probe and reports current readiness
         (possibly []) *)
      let deadline = if timeout < 0 then None else Some (t.clock + timeout) in
      block ?deadline
        (List.concat_map (fun (_, ofd) -> poll_waiters ofd) pairs)
        (fun () ->
          match List.filter_map (fun (i, ofd) -> poll_ready i ofd) pairs with
          | [] -> (
            match deadline with
            | Some d when t.clock >= d ->
              Kstat.on_poll_wake t.kstat ~pid:proc.Proc.pid ~timed_out:true;
              Some (Ok [])
            | Some _ | None -> None)
          | ready ->
            Kstat.on_poll_wake t.kstat ~pid:proc.Proc.pid ~timed_out:false;
            Some (Ok ready)))

(* The errno-level outcome of a reply, for the trace's End events;
   [None] for a total syscall. Dispatch computes it for every reply,
   traced or not, so an errno outside the syscall's domain fails the run
   wherever it happens. *)
let reply_outcome : type a. a Sysreq.info -> a -> Trace.outcome option =
 fun info v ->
  match (info.Sysreq.reply, v) with
  | Sysreq.Total, _ -> None
  | Sysreq.Fallible _, Ok _ -> Some Trace.Ok_result
  | Sysreq.Fallible _, Error e ->
    if not (Sysreq.admits info e) then
      invalid_arg
        (Printf.sprintf "Kernel: %s replied %s, outside its errno domain"
           info.Sysreq.name (Errno.to_string e));
    Some (Trace.Err e)

(* Consult the fault schedule at dispatch: for a fallible request, an
   armed trigger replaces the whole syscall with an [Error e] reply —
   the handler never runs, so there is nothing to roll back. *)
let inject_syscall : type a. t -> a Sysreq.info -> (a * Errno.t) option =
 fun t info ->
  match (t.fault, info.Sysreq.reply) with
  | Some fi, Sysreq.Fallible _ -> (
    match Fault.on_syscall fi ~kind:info.Sysreq.name with
    | None -> None
    | Some e ->
      Kstat.on_injection t.kstat Fault.Syscall;
      Some (Error e, e))
  | None, _ | Some _, Sysreq.Total -> None

let injection_counts t =
  match t.fault with
  | Some fi -> (Fault.injected fi Fault.Frame_alloc, Fault.injected fi Fault.Commit)
  | None -> (0, 0)

(* The injections one traced syscall met, for its End event: the
   dispatch-time [reply] that replaced it, and the frame-alloc and
   commit denials since [injection_counts] read [before]. Untraced
   machines build nothing. *)
let injections t ~reply before =
  match (t.trace, t.fault) with
  | Some _, Some fi ->
    let a0, c0 = before in
    let frame_allocs = Fault.injected fi Fault.Frame_alloc - a0 in
    let commits = Fault.injected fi Fault.Commit - c0 in
    if reply = None && frame_allocs = 0 && commits = 0 then
      Trace.no_injections
    else { Trace.reply; frame_allocs; commits }
  | None, _ | Some _, None -> Trace.no_injections

(* ------------------------------------------------------------------ *)
(* Scheduler *)

let handler (th : Proc.thread) : (unit, unit) Effect.Deep.handler =
  {
    Effect.Deep.retc = (fun () -> ());
    exnc = (fun e -> raise e);
    effc =
      (fun (type a) (eff : a Effect.t) ->
        match eff with
        | Sysreq.Sys req ->
          Some
            (fun (k : (a, _) Effect.Deep.continuation) ->
              th.Proc.pending <- Some (Proc.Pending (req, k)))
        | _ -> None);
  }

let park t (th : Proc.thread) req ~on ~deadline ~held ~check k ~entry_cycles
    ~detail =
  th.Proc.tstate <- Proc.Blocked;
  Option.iter Ofd.incref held;
  th.Proc.wait <-
    Some
      (Waitq.park t.waits ~on ?deadline
         (Parked { th; req; check; k; entry_cycles; detail; held }))

let record_begin t proc (th : Proc.thread) name ~detail =
  match t.trace with
  | None -> ()
  | Some tr ->
    Trace.record tr ~tick:t.clock ~pid:proc.Proc.pid ~tid:th.Proc.tid name
      ~phase:Trace.Begin ~detail ~ts_ns:(now_ns t) ?cpu:(cpu_of t th)

(* End a syscall: record its End event, then run [resume] (which hands
   the reply to the caller) unless the syscall ended its thread. The End
   repeats the Begin's detail so consumers that filter by name (not
   phase) still see every annotation. *)
let complete t (th : Proc.thread) ~info ~entry_cycles ~detail ~injected
    outcome resume =
  (match t.trace with
  | Some tr when info.Sysreq.cost <> Sysreq.Accounting ->
    let now = Vmem.Cost.total t.cost in
    Trace.record tr ~tick:t.clock ~pid:th.Proc.owner ~tid:th.Proc.tid
      info.Sysreq.name ~phase:Trace.End ~detail ~injected
      ~ts_ns:(Vmem.Cost.cycles_to_ns now)
      ~span_ns:(Vmem.Cost.cycles_to_ns (now -. entry_cycles))
      ?outcome ?cpu:(cpu_of t th)
  | Some _ | None -> ());
  match th.Proc.tstate with
  | Proc.Running | Proc.Blocked -> ready_thread t th resume
  | Proc.Exited (* exit, or a fatal signal *)
  | Proc.Ready (* exec restarted it at the new image *) ->
    ()

(* End a syscall with a reply [v] made within its dispatch: an injected
   fault's ([fault] is its errno), the handler's, or the first check's.
   The End reports every injection since [inj0]. *)
let reply t th k ~info ~entry_cycles ~detail ~fault inj0 v =
  complete t th ~info ~entry_cycles ~detail
    ~injected:(injections t ~reply:fault inj0)
    (reply_outcome info v)
    (fun () -> Effect.Deep.continue k v)

let dispatch t (th : Proc.thread) (Proc.Pending (req, k)) =
  let proc = proc_of t th in
  Kstat.set_current t.kstat (Some proc.Proc.pid);
  let info = Sysreq.info req in
  let meta = info.Sysreq.cost = Sysreq.Accounting in
  (* the detail only feeds trace records: untraced machines skip
     building it, and their parked entries carry [D_none] *)
  let detail =
    if (not meta) && Option.is_some t.trace then annotations proc req
    else Trace.D_none
  in
  let entry_cycles = Vmem.Cost.total t.cost in
  if not meta then begin
    record_begin t proc th info.Sysreq.name ~detail;
    Kstat.on_syscall t.kstat req;
    if info.Sysreq.cost = Sysreq.Syscall then
      Vmem.Cost.charge t.cost Syscall (params t).Vmem.Cost.syscall_base
  end;
  let inj0 = injection_counts t in
  match if meta then None else inject_syscall t info with
  | Some (v, e) ->
    reply t th k ~info ~entry_cycles ~detail ~fault:(Some e) inj0 v
  | None -> (
    match attempt t proc th req with
    | Reply v -> reply t th k ~info ~entry_cycles ~detail ~fault:None inj0 v
    | Block { on; deadline; held; check } -> (
      (* every wait starts with one try: a parked syscall is one whose
         check has already said no *)
      match check () with
      | Some v ->
        reply t th k ~info ~entry_cycles ~detail ~fault:None inj0 v
      | None -> park t th req ~on ~deadline ~held ~check k ~entry_cycles ~detail)
    | Die ->
      (* Exec restarting the thread, or Exit: the request succeeded and
         there is no caller left to resume *)
      complete t th ~info ~entry_cycles ~detail ~injected:Trace.no_injections
        (Some Trace.Ok_result) ignore)

let thread_returned t (th : Proc.thread) =
  let proc = proc_of t th in
  retire_thread proc th;
  if not (Proc.is_alive proc) then ()
  else if th.Proc.is_main || proc.Proc.live = 0 then
    (* main returning, or the last thread gone, ends the process *)
    kill_process t proc (Types.Exited 0)

(* Run a thread until it performs a syscall (sets [pending]) or
   returns. *)
let enter (th : Proc.thread) =
  th.Proc.tstate <- Proc.Running;
  match th.Proc.entry with
  | Some (Proc.Start f) ->
    th.Proc.entry <- None;
    Effect.Deep.match_with f () (handler th)
  | Some (Proc.Resume r) ->
    th.Proc.entry <- None;
    r ()
  | None -> invalid_arg "Kernel.run: scheduled thread with nothing to run"

(* End a slice: dispatch the syscall it stopped at, or retire the thread
   if its body returned. *)
let finish t (th : Proc.thread) =
  match th.Proc.pending with
  | Some p ->
    th.Proc.pending <- None;
    dispatch t th p
  | None -> if th.Proc.tstate = Proc.Running then thread_returned t th

(* One visit of a woken waiter: [true] while its syscall still waits. A
   thread that died while parked leaves, deadline and all. *)
let visit t w =
  match Waitq.payload w with
  | Parked p when p.th.Proc.tstate = Proc.Exited ->
    p.th.Proc.wait <- None;
    false
  | Parked p -> (
    match p.check () with
    | None -> true
    | Some v ->
      let th = p.th and k = p.k in
      th.Proc.wait <- None;
      release_held (Waitq.payload w);
      (* the check itself may end the thread (a write's SIGPIPE) *)
      if th.Proc.tstate <> Proc.Exited then begin
        let info = Sysreq.info p.req in
        complete t th ~info ~entry_cycles:p.entry_cycles ~detail:p.detail
          ~injected:Trace.no_injections (reply_outcome info v)
          (fun () -> Effect.Deep.continue k v)
      end;
      false)
  | _ -> false

let wake_parked t = Waitq.run_pass t.waits ~now:t.clock (visit t)

let check_alarms t =
  let due =
    Hashtbl.fold
      (fun pid at acc -> if at <= t.clock then pid :: acc else acc)
      t.alarms []
  in
  List.iter
    (fun pid ->
      Hashtbl.remove t.alarms pid;
      match find_proc t pid with
      | Some proc when Proc.is_alive proc -> post_signal t proc Usignal.SIGALRM
      | Some _ | None -> ())
    due

(* The nearest tick at which time itself unblocks someone: an armed
   alarm or a parked poll's timeout. The run loop jumps the clock here
   when every thread is parked. *)
let next_timer_tick t =
  Hashtbl.fold
    (fun _ at acc ->
      match acc with None -> Some at | Some best -> Some (min best at))
    t.alarms
    (Waitq.next_deadline t.waits)

(* What a parked syscall waits on, for stall reports: the fd or mutex it
   names, a poll's set size, or just the syscall. *)
let stall_reason : type a. a Sysreq.t -> string = function
  | Sysreq.Read (fd, _) -> Printf.sprintf "read(fd=%d)" fd
  | Sysreq.Write (fd, _) -> Printf.sprintf "write(fd=%d)" fd
  | Sysreq.Accept fd -> Printf.sprintf "accept(fd=%d)" fd
  | Sysreq.Mutex_lock id -> Printf.sprintf "mutex_lock(%d)" id
  | Sysreq.Poll { interests; _ } ->
    Printf.sprintf "poll(n=%d)" (List.length interests)
  | req -> (Sysreq.info req).Sysreq.name

let describe_stalls t =
  List.filter_map
    (function
      | Parked { th; req; _ } ->
        Some { pid = th.Proc.owner; tid = th.Proc.tid; why = stall_reason req }
      | _ -> None)
    (Waitq.parked_payloads t.waits)

(* ------------------------------------------------------------------ *)
(* Run queues and the run loop *)

let pop_runq t q =
  (match t.config.sched with
  | `Fifo -> ()
  | `Random ->
    (* rotate a random prefix so the pop is uniform-ish but deterministic *)
    let n = Queue.length q in
    if n > 1 then
      for _ = 1 to Prng.Splitmix.int t.rng ~bound:n do
        Queue.add (Queue.pop q) q
      done);
  let rec pop () =
    match Queue.take_opt q with
    | None -> None
    | Some th when th.Proc.tstate = Proc.Exited -> pop ()
    | Some th -> Some th
  in
  pop ()

(* Steal from the longest remote queue still holding at least two
   entries (always leave the victim its own next slice); ties break to
   the lowest CPU index, keeping the policy deterministic. A one-CPU
   machine has no remote queue. *)
let steal t ~thief =
  let best = ref None in
  for cpu = 0 to Array.length t.runqs - 1 do
    if cpu <> thief then begin
      let n = Queue.length t.runqs.(cpu) in
      if n >= 2 then
        match !best with
        | Some (_, bn) when bn >= n -> ()
        | Some _ | None -> best := Some (cpu, n)
    end
  done;
  match !best with
  | None -> None
  | Some (victim, _) -> (
    match pop_runq t t.runqs.(victim) with
    | None -> None
    | Some th ->
      th.Proc.cpu <- thief;
      Kstat.set_current t.kstat None;
      Kstat.on_steal t.kstat ~cpu:thief;
      Some th)

(* A slice: charge the context switch, note the CPU in the space's mask,
   and enter the thread. The CPU bookkeeping models the tracked TLB, so
   a non-SMP machine (broadcast shootdowns) skips it. *)
let run_slice t cpu (th : Proc.thread) =
  t.clock <- t.clock + 1;
  if t.config.smp then begin
    Vmem.Tlb.set_active t.tlb cpu;
    let asp = (proc_of t th).Proc.aspace in
    (match t.last_as.(cpu) with
    | Some prev when prev == asp -> ()
    | Some _ | None ->
      t.last_as.(cpu) <- Some asp;
      Vmem.Tlb.flush_local t.tlb);
    (* unconditionally, not just on switch: a shootdown collapses the
       mask to its sender, and a still-running remote CPU re-caches the
       space the moment it runs again *)
    Vmem.Addr_space.note_cpu asp ~cpu
  end;
  enter th

(* One scheduling round, the same on every machine; [false] when no
   thread was ready. Its three phases keep this order, on which the
   [Random] scheduler's draws and the Kstat attribution of switch
   charges depend:
   1. every CPU in ascending order pops its own queue, or else steals;
   2. every picked thread runs its slice;
   3. the round's syscalls are dispatched in ascending CPU order. This
      waits for every slice because a dispatch can end threads picked
      later in the same round (exit and exec tear down sibling
      threads); a thread that died that way is skipped. *)
let run_round t =
  let ncpu = Array.length t.runqs in
  let ran = ref false in
  for cpu = 0 to ncpu - 1 do
    let pick =
      match pop_runq t t.runqs.(cpu) with
      | Some _ as pick -> pick
      | None -> steal t ~thief:cpu
    in
    t.picked.(cpu) <- pick;
    if Option.is_some pick then ran := true
  done;
  for cpu = 0 to ncpu - 1 do
    match t.picked.(cpu) with Some th -> run_slice t cpu th | None -> ()
  done;
  for cpu = 0 to ncpu - 1 do
    match t.picked.(cpu) with
    | None -> ()
    | Some th ->
      t.picked.(cpu) <- None;
      if t.config.smp then Vmem.Tlb.set_active t.tlb cpu;
      if th.Proc.tstate <> Proc.Exited then finish t th
  done;
  !ran

let idle t = Array.for_all Queue.is_empty t.runqs

let run ?(max_ticks = 10_000_000) t =
  let deadline = t.clock + max_ticks in
  let rec loop () =
    if t.clock >= deadline then Tick_limit
    else begin
      check_alarms t;
      let ran = run_round t in
      wake_parked t;
      if ran || not (idle t) then loop ()
      else if Waitq.parked t.waits = 0 then All_exited
      else
        (* blocked threads and an armed alarm or poll deadline: jump
           time forward *)
        match next_timer_tick t with
        | Some at when at > t.clock ->
          t.clock <- at;
          check_alarms t;
          wake_parked t;
          if idle t && Waitq.parked t.waits > 0 then Stalled (describe_stalls t)
          else loop ()
        | Some _ | None -> Stalled (describe_stalls t)
    end
  in
  loop ()

let spawn_init t ?(argv = []) path =
  match find_program t path with
  | None -> Error Errno.ENOENT
  | Some prog -> (
    Vmem.Cost.charge t.cost Proc_create (params t).Vmem.Cost.proc_create;
    match build_image t prog with
    | Error e -> Error e
    | Ok aspace ->
      let fdt = Fd_table.create ~max_fds:t.config.max_fds () in
      List.iter
        (fun fd ->
          match Fd_table.alloc fdt ~at_least:fd ~cloexec:false (make_console_ofd t) with
          | Ok got -> assert (got = fd)
          | Error _ -> assert false)
        [ 0; 1; 2 ];
      let proc =
        Proc.make ~pid:(fresh_pid t) ~parent:0 ~aspace ~fdt ~cwd:"/"
          ~program:prog.Program.name
      in
      Hashtbl.replace t.procs proc.Proc.pid proc;
      ignore (new_thread t proc ~is_main:true (prog.Program.main ~argv));
      Ok proc.Proc.pid)

let boot ?config ~programs ?argv path =
  let t = create ?config () in
  register_all t programs;
  match spawn_init t ?argv path with
  | Error e -> Error e
  | Ok _pid -> Ok (t, run t)
