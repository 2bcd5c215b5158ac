type config = Machine.config = {
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

(* Opened after [config], so that [t.fault] is the machine's injector,
   not the config's spec. *)
open Machine

let default_config = Machine.default_config

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

type t = Machine.t

let create = Machine.create
let config t = t.config
let register t prog = Hashtbl.replace t.programs prog.Program.name prog
let register_all t progs = List.iter (register t) progs
let cost t = t.cost
let frames t = t.frames
let vfs t = t.vfs
let console t = Buffer.contents (Vfs.console_buffer t.vfs)
let trace t = t.trace
let kstat t = t.kstat
let blame t = t.blame
let fault t = t.fault
let clock t = t.clock
let find_proc = Machine.find_proc
let find_template = Machine.find_template
let image_base = Creation.image_base
let spawn_init = Creation.spawn_init

let procs t =
  Hashtbl.fold (fun _ p acc -> p :: acc) t.procs []
  |> List.sort (fun a b -> compare a.Proc.pid b.Proc.pid)

(* Processes never leave [procs], so a reaped one still has its status. *)
let status_of t pid =
  match find_proc t pid with
  | Some { Proc.pstate = Proc.Zombie st | Proc.Reaped st; _ } -> Some st
  | Some { Proc.pstate = Proc.Alive; _ } | None -> None

let templates t =
  Hashtbl.fold (fun _ tpl acc -> tpl :: acc) t.templates []
  |> List.sort (fun a b -> compare a.Template.id b.Template.id)

let proc_of t (th : Proc.thread) =
  match find_proc t th.Proc.owner with
  | Some p -> p
  | None -> invalid_arg "Kernel: thread without process"

let ready_thread t th resume =
  th.Proc.entry <- Some (Proc.Resume resume);
  th.Proc.tstate <- Proc.Ready;
  enqueue t th

(* ------------------------------------------------------------------ *)
(* The syscall engine *)

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

(* Route a request to the subsystem module that serves it. *)
let attempt : type a. t -> Proc.t -> Proc.thread -> a Sysreq.t -> a action =
 fun t proc th req ->
  match req with
  | Sysreq.Getpid -> Lifecycle.getpid proc
  | Sysreq.Getppid -> Lifecycle.getppid proc
  | Sysreq.Gettid -> Threads.gettid th
  | Sysreq.Fork body -> Creation.fork t proc th body
  | Sysreq.Fork_eager body -> Creation.fork_eager t proc th body
  | Sysreq.Vfork body -> Creation.vfork t proc th body
  | Sysreq.Spawn req -> Creation.spawn t proc th req
  | Sysreq.Exec { path; argv } -> Creation.exec t proc th path argv
  | Sysreq.Exit code -> Lifecycle.exit t proc code
  | Sysreq.Waitpid target -> Lifecycle.waitpid t proc target
  | Sysreq.Kill (pid, sig_) -> Lifecycle.kill t pid sig_
  | Sysreq.Sigaction (sig_, disp) -> Lifecycle.sigaction proc sig_ disp
  | Sysreq.Sigprocmask (op, set) -> Lifecycle.sigprocmask t proc op set
  | Sysreq.Alarm ticks -> Lifecycle.alarm t proc ticks
  | Sysreq.Open (path, flags) -> Fds.openf t proc path flags
  | Sysreq.Close fd -> Fds.close proc fd
  | Sysreq.Read (fd, n) -> Fds.read proc fd n
  | Sysreq.Write (fd, data) -> Fds.write t proc fd data
  | Sysreq.Dup fd -> Fds.dup proc fd
  | Sysreq.Dup2 { src; dst } -> Fds.dup2 proc ~src ~dst
  | Sysreq.Set_cloexec (fd, v) -> Fds.set_cloexec proc fd v
  | Sysreq.Pipe -> Fds.pipe proc
  | Sysreq.Try_lock fd -> Fds.try_lock proc fd
  | Sysreq.Unlock fd -> Fds.unlock proc fd
  | Sysreq.Mmap { len; perm } -> Memory.mmap proc ~len ~perm
  | Sysreq.Munmap { addr; len } -> Memory.munmap proc ~addr ~len
  | Sysreq.Brk request -> Memory.brk proc request
  | Sysreq.Mem_read { addr; len } -> Memory.mem_read proc ~addr ~len
  | Sysreq.Mem_write { addr; data } -> Memory.mem_write proc ~addr ~data
  | Sysreq.Touch { addr; len } -> Memory.touch t proc ~addr ~len
  | Sysreq.Thread_create body -> Threads.thread_create t proc body
  | Sysreq.Mutex_create -> Threads.mutex_create proc
  | Sysreq.Mutex_lock id -> Threads.mutex_lock proc th id
  | Sysreq.Mutex_unlock id -> Threads.mutex_unlock proc th id
  | Sysreq.Mutex_trylock id -> Threads.mutex_trylock proc th id
  | Sysreq.Mutex_reinit id -> Threads.mutex_reinit proc id
  | Sysreq.Yield -> Threads.yield ()
  | Sysreq.Handled_signals name -> Lifecycle.handled_signals proc name
  | Sysreq.Chdir path -> Fds.chdir t proc path
  | Sysreq.Getcwd -> Fds.getcwd proc
  | Sysreq.Atfork_register handlers -> Lifecycle.atfork_register proc handlers
  | Sysreq.Atfork_list -> Lifecycle.atfork_list proc
  | Sysreq.Pb_create -> Creation.pb_create t proc th
  | Sysreq.Pb_map { pid; len; perm } -> Creation.pb_map t proc ~pid ~len ~perm
  | Sysreq.Pb_write { pid; addr; data } -> Creation.pb_write t proc ~pid ~addr ~data
  | Sysreq.Pb_copy_fd { pid; src; dst } -> Creation.pb_copy_fd t proc ~pid ~src ~dst
  | Sysreq.Pb_start { pid; path; argv } -> Creation.pb_start t proc ~pid ~path ~argv
  | Sysreq.Stdio_flushed { bytes; inherited } -> Fds.stdio_flushed t ~bytes ~inherited
  | Sysreq.Template_freeze { pid } -> Creation.template_freeze t proc pid
  | Sysreq.Template_spawn { tpl; body } -> Creation.template_spawn t proc th tpl body
  | Sysreq.Template_discard id -> Creation.template_discard t id
  | Sysreq.Socket -> Sockets.socket proc
  | Sysreq.Bind (fd, port) -> Sockets.bind t proc fd port
  | Sysreq.Listen { fd; backlog } -> Sockets.listen proc fd backlog
  | Sysreq.Accept fd -> Sockets.accept t proc fd
  | Sysreq.Connect (fd, port) -> Sockets.connect t proc fd port
  | Sysreq.Poll { interests; timeout } -> Sockets.poll t proc interests timeout

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
  Lifecycle.retire_thread proc th;
  if not (Proc.is_alive proc) then ()
  else if th.Proc.is_main || proc.Proc.live = 0 then
    (* main returning, or the last thread gone, ends the process *)
    Lifecycle.kill_process t proc (Types.Exited 0)

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
      Lifecycle.release_held (Waitq.payload w);
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

(* Runs every scheduling round; with no alarm armed it allocates and
   walks nothing. *)
let check_alarms t =
  if Hashtbl.length t.alarms > 0 then begin
    let due =
      Hashtbl.fold
        (fun pid at acc -> if at <= t.clock then pid :: acc else acc)
        t.alarms []
    in
    List.iter
      (fun pid ->
        Hashtbl.remove t.alarms pid;
        match find_proc t pid with
        | Some proc when Proc.is_alive proc ->
          Lifecycle.post_signal t proc Usignal.SIGALRM
        | Some _ | None -> ())
      due
  end

(* The nearest tick at which time itself unblocks someone: an armed
   alarm or a parked poll's timeout. The run loop jumps the clock here
   when every thread is parked. *)
let next_timer_tick t =
  let deadline = Waitq.next_deadline t.waits in
  if Hashtbl.length t.alarms = 0 then deadline
  else
    Hashtbl.fold
      (fun _ at acc ->
        match acc with None -> Some at | Some best -> Some (min best at))
      t.alarms deadline

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

let boot ?config ~programs ?argv path =
  let t = create ?config () in
  register_all t programs;
  match spawn_init t ?argv path with
  | Error e -> Error e
  | Ok _pid -> Ok (t, run t)
