type counters = {
  mutable syscalls : int;
  by_kind : int array;
  kind_names : string array;
  mutable forks : int;
  mutable vforks : int;
  mutable spawns : int;
  mutable execs : int;
  mutable faults : int;
  mutable cow_breaks : int;
  mutable cow_reuses : int;
  mutable frames_copied : int;
  mutable frames_zeroed : int;
  mutable pt_pages_copied : int;
  mutable ptes_copied : int;
  mutable tlb_flushes : int;
  mutable tlb_shootdowns : int;
  mutable tlb_invlpgs : int;
  mutable ipis_sent : int;
  mutable ipis_received : int;
  mutable cpu_migrations : int;
  mutable cpu_steals : int;
  mutable stdio_flushed_bytes : int;
  mutable stdio_double_flushed_bytes : int;
  mutable inj_frame_allocs : int;
  mutable inj_commits : int;
  mutable inj_syscalls : int;
  mutable inj_pager_fetches : int;
  mutable major_faults : int;
  mutable minor_faults : int;
  mutable pages_fetched : int;
  mutable readahead_hits : int;
  mutable oom_kills : int;
  mutable tpl_freezes : int;
  mutable tpl_spawns : int;
  mutable tpl_subtrees_shared : int;
  mutable tpl_pages_shared : int;
  mutable sock_connects : int;
  mutable sock_refused : int;
  mutable sock_accepts : int;
  mutable accept_queue_peak : int;
  mutable poll_wakeups : int;
  mutable poll_timeouts : int;
  by_cost : Vmem.Cost.t;
}

(* Only the global record counts kinds: a pid's gets [kinds = 0]. *)
let make_counters ~kinds =
  {
    syscalls = 0;
    by_kind = Array.make kinds 0;
    kind_names = Array.make kinds "";
    forks = 0;
    vforks = 0;
    spawns = 0;
    execs = 0;
    faults = 0;
    cow_breaks = 0;
    cow_reuses = 0;
    frames_copied = 0;
    frames_zeroed = 0;
    pt_pages_copied = 0;
    ptes_copied = 0;
    tlb_flushes = 0;
    tlb_shootdowns = 0;
    tlb_invlpgs = 0;
    ipis_sent = 0;
    ipis_received = 0;
    cpu_migrations = 0;
    cpu_steals = 0;
    stdio_flushed_bytes = 0;
    stdio_double_flushed_bytes = 0;
    inj_frame_allocs = 0;
    inj_commits = 0;
    inj_syscalls = 0;
    inj_pager_fetches = 0;
    major_faults = 0;
    minor_faults = 0;
    pages_fetched = 0;
    readahead_hits = 0;
    oom_kills = 0;
    tpl_freezes = 0;
    tpl_spawns = 0;
    tpl_subtrees_shared = 0;
    tpl_pages_shared = 0;
    sock_connects = 0;
    sock_refused = 0;
    sock_accepts = 0;
    accept_queue_peak = 0;
    poll_wakeups = 0;
    poll_timeouts = 0;
    by_cost = Vmem.Cost.create ();
  }

(* Per-CPU machine-wide dimension, present only on SMP machines: where
   the per-pid tables answer "who paid", these arrays answer "which CPU
   did it happen on" — the axis the E16 scaling story is about. *)
type smp = {
  smp_cpus : int;
  sent : int array;  (** IPIs sent, by source CPU *)
  received : int array;  (** IPIs received, by interrupted CPU *)
  steals : int array;  (** work-steals, by the stealing CPU *)
  migrations : int array;  (** cross-CPU thread migrations, by new CPU *)
  fanout : (int, int ref) Hashtbl.t;
      (** full-AS shootdowns by remote-CPU count k (how many CPUs one
          fork/munmap/mprotect had to interrupt) *)
}

(* [slot] is [current]'s counters once an update since [set_current]
   has looked them up, and [unset] until then. [unset] is never
   written. *)
type t = {
  global : counters;
  by_pid : (Types.pid, counters) Hashtbl.t;
  mutable current : Types.pid option;
  mutable slot : counters;
  mutable smp : smp option;
}

let unset = make_counters ~kinds:0

let create () =
  {
    global = make_counters ~kinds:Sysreq.nkinds;
    by_pid = Hashtbl.create 16;
    current = None;
    slot = unset;
    smp = None;
  }

let enable_smp t ~cpus =
  if cpus < 1 then invalid_arg "Kstat.enable_smp: cpus < 1";
  t.smp <-
    Some
      {
        smp_cpus = cpus;
        sent = Array.make cpus 0;
        received = Array.make cpus 0;
        steals = Array.make cpus 0;
        migrations = Array.make cpus 0;
        fanout = Hashtbl.create 8;
      }

let smp t = t.smp

let global t = t.global

let set_current t pid =
  t.current <- pid;
  t.slot <- unset

let pid_counters t pid = Hashtbl.find_opt t.by_pid pid

let pids t =
  Hashtbl.fold (fun pid _ acc -> pid :: acc) t.by_pid [] |> List.sort compare

let pid_slot t pid =
  match Hashtbl.find t.by_pid pid with
  | c -> c
  | exception Not_found ->
    let c = make_counters ~kinds:0 in
    Hashtbl.add t.by_pid pid c;
    c

(* The current pid's counters, or [unset] when no pid is current. The
   first use after [set_current] looks them up, once per dispatch, so a
   dispatch that never counts or charges makes no slot. *)
let current_counters t =
  if t.slot == unset then begin
    match t.current with
    | Some pid -> t.slot <- pid_slot t pid
    | None -> ()
  end;
  t.slot

(* Apply [f] to the global counters and, when a current pid is set, to
   that pid's counters too — every update below goes through here (or,
   for [on_syscall] and [on_cost], follows the same rule without the
   closure) so the two views can never disagree. *)
let update t f =
  f t.global;
  let c = current_counters t in
  if c != unset then f c

(* Like [update], but attributing to an explicit pid instead of
   [current] — for completions the scheduler performs on behalf of a
   parked thread (accept/poll wakeups in the kernel's pass over woken
   waiters), where no syscall is being dispatched and [current] is
   unset or wrong. *)
let update_for t pid f =
  f t.global;
  f (pid_slot t pid)

let count_syscall : type a. counters -> a Sysreq.t -> unit =
 fun c req ->
  c.syscalls <- c.syscalls + 1;
  match req with
  | Sysreq.Fork _ | Sysreq.Fork_eager _ -> c.forks <- c.forks + 1
  | Sysreq.Vfork _ -> c.vforks <- c.vforks + 1
  | Sysreq.Spawn _ -> c.spawns <- c.spawns + 1
  | Sysreq.Exec _ -> c.execs <- c.execs + 1
  | _ -> ()

(* Kinds count in the global record only, at the descriptor's slot; a
   slot takes its name at its first count. *)
let on_syscall t req =
  let g = t.global and info = Sysreq.info req in
  let i = info.Sysreq.idx in
  if g.by_kind.(i) = 0 then g.kind_names.(i) <- info.Sysreq.name;
  g.by_kind.(i) <- g.by_kind.(i) + 1;
  count_syscall g req;
  let c = current_counters t in
  if c != unset then count_syscall c req

(* The Cost observer: every charge lands in the ledger, and the
   categories a typed counter mirrors move it too. *)
let record c (cat : Vmem.Cost.cat) ~n cycles =
  Vmem.Cost.add c.by_cost cat ~n cycles;
  match cat with
  | Fault_base -> c.faults <- c.faults + n
  | Fault_cow_copy ->
    c.cow_breaks <- c.cow_breaks + n;
    c.minor_faults <- c.minor_faults + n;
    c.frames_copied <- c.frames_copied + n
  | Fault_cow_reuse ->
    c.cow_breaks <- c.cow_breaks + n;
    c.minor_faults <- c.minor_faults + n;
    c.cow_reuses <- c.cow_reuses + n
  | Fault_zero_fill ->
    c.minor_faults <- c.minor_faults + n;
    c.frames_zeroed <- c.frames_zeroed + n
  | Pager_request -> c.major_faults <- c.major_faults + n
  | Pager_fetch_image | Pager_fetch_template ->
    c.pages_fetched <- c.pages_fetched + n
  | Pager_readahead_hit -> c.readahead_hits <- c.readahead_hits + n
  | Fork_pt_node -> c.pt_pages_copied <- c.pt_pages_copied + n
  | Fork_pte -> c.ptes_copied <- c.ptes_copied + n
  | Fork_eager_copy -> c.frames_copied <- c.frames_copied + n
  | Tlb_flush -> c.tlb_flushes <- c.tlb_flushes + n
  | Tlb_shootdown -> c.tlb_shootdowns <- c.tlb_shootdowns + n
  | Tlb_invlpg -> c.tlb_invlpgs <- c.tlb_invlpgs + n
  | Syscall | Proc_create | Proc_destroy | Fork_vma | Zygote_subtree
  | Exec_base | Exec_load_page | Fd_inherit ->
    ()

let on_cost t cat ~n cycles =
  record t.global cat ~n cycles;
  let c = current_counters t in
  if c != unset then record c cat ~n cycles

(* IPI observer (tracked-TLB mode): [dsts] are the remote CPUs actually
   interrupted (the sender is never among them), [n] pages per dst
   ([full] = whole-AS flush). Charged cycles arrive separately through
   [on_cost] ([Tlb_shootdown]); this hook only moves the counters. *)
let on_ipi t ~src ~dsts ~full ~n =
  let k = List.length dsts in
  if k > 0 && n > 0 then begin
    update t (fun c ->
        c.ipis_sent <- c.ipis_sent + (n * k);
        c.ipis_received <- c.ipis_received + (n * k));
    match t.smp with
    | None -> ()
    | Some s ->
      s.sent.(src) <- s.sent.(src) + (n * k);
      List.iter (fun d -> s.received.(d) <- s.received.(d) + n) dsts;
      if full then begin
        match Hashtbl.find_opt s.fanout k with
        | Some r -> incr r
        | None -> Hashtbl.add s.fanout k (ref 1)
      end
  end

(* A steal moves the thread's home to the thief, so every steal is also
   a migration. *)
let on_steal t ~cpu =
  update t (fun c ->
      c.cpu_steals <- c.cpu_steals + 1;
      c.cpu_migrations <- c.cpu_migrations + 1);
  match t.smp with
  | None -> ()
  | Some s ->
    s.steals.(cpu) <- s.steals.(cpu) + 1;
    s.migrations.(cpu) <- s.migrations.(cpu) + 1

let on_injection t site =
  update t (fun c ->
      match site with
      | Fault.Frame_alloc -> c.inj_frame_allocs <- c.inj_frame_allocs + 1
      | Fault.Commit -> c.inj_commits <- c.inj_commits + 1
      | Fault.Syscall -> c.inj_syscalls <- c.inj_syscalls + 1
      | Fault.Pager_fetch -> c.inj_pager_fetches <- c.inj_pager_fetches + 1)

(* One OOM kill under the [Demand] commit policy: [pid] is the victim,
   attributed explicitly (the kill happens inside the *faulter's*
   syscall, so [current] is the wrong slot for the victim's death). *)
let on_oom_kill t ~pid =
  t.global.oom_kills <- t.global.oom_kills + 1;
  let c = pid_slot t pid in
  c.oom_kills <- c.oom_kills + 1

(* Success-only hooks called from the template syscall handlers (a
   failed freeze/spawn must not move any counter). [pages] is the
   template's resident set — footprint shared without per-page work. *)
let on_template_freeze t =
  update t (fun c -> c.tpl_freezes <- c.tpl_freezes + 1)

let on_template_spawn t ~subtrees ~pages =
  update t (fun c ->
      c.tpl_spawns <- c.tpl_spawns + 1;
      c.tpl_subtrees_shared <- c.tpl_subtrees_shared + subtrees;
      c.tpl_pages_shared <- c.tpl_pages_shared + pages)

(* Socket/poll observability. Accepts are attributed to an explicit pid
   (per-pid [sock_accepts] is the dispatch-imbalance axis E17 reports:
   with per-worker accept, whichever worker wakes first wins the
   connection) because the completion often happens in the kernel's
   pass over woken waiters, after the accepting thread had long been
   parked. *)
let on_connect t ~refused =
  update t (fun c ->
      c.sock_connects <- c.sock_connects + 1;
      if refused then c.sock_refused <- c.sock_refused + 1)

let on_accept t ~pid =
  update_for t pid (fun c -> c.sock_accepts <- c.sock_accepts + 1)

let on_accept_queue t ~depth =
  update t (fun c ->
      if depth > c.accept_queue_peak then c.accept_queue_peak <- depth)

let on_poll_wake t ~pid ~timed_out =
  update_for t pid (fun c ->
      c.poll_wakeups <- c.poll_wakeups + 1;
      if timed_out then c.poll_timeouts <- c.poll_timeouts + 1)

let on_stdio_flush t ~bytes ~inherited =
  update t (fun c ->
      c.stdio_flushed_bytes <- c.stdio_flushed_bytes + bytes;
      c.stdio_double_flushed_bytes <- c.stdio_double_flushed_bytes + inherited)

let kinds c =
  let counted = ref [] in
  Array.iteri
    (fun i n -> if n > 0 then counted := (c.kind_names.(i), n) :: !counted)
    c.by_kind;
  !counted
  |> List.sort (fun (ka, na) (kb, nb) ->
         match compare nb na with 0 -> compare ka kb | d -> d)

let snapshot c =
  [
    ("syscalls", c.syscalls);
    ("forks", c.forks);
    ("vforks", c.vforks);
    ("spawns", c.spawns);
    ("execs", c.execs);
    ("faults", c.faults);
    ("cow-breaks", c.cow_breaks);
    ("cow-reuses", c.cow_reuses);
    ("frames-copied", c.frames_copied);
    ("frames-zeroed", c.frames_zeroed);
    ("pt-pages-copied", c.pt_pages_copied);
    ("ptes-copied", c.ptes_copied);
    ("tlb-flushes", c.tlb_flushes);
    ("tlb-shootdowns", c.tlb_shootdowns);
    ("tlb-invlpgs", c.tlb_invlpgs);
    ("stdio-flushed-bytes", c.stdio_flushed_bytes);
    ("stdio-double-flushed-bytes", c.stdio_double_flushed_bytes);
    ("inj-frame-allocs", c.inj_frame_allocs);
    ("inj-commits", c.inj_commits);
    ("inj-syscalls", c.inj_syscalls);
  ]
  (* demand-paging keys appear only once a pager served a fault or the
     OOM killer fired (minor_faults is always maintained but only
     emitted here), so snapshots of eager runs — including every
     historical BENCH json — stay byte-identical *)
  @ (if c.major_faults = 0 && c.oom_kills = 0 then []
     else
       [
         ("major-faults", c.major_faults);
         ("minor-faults", c.minor_faults);
         ("pages-fetched", c.pages_fetched);
         ("readahead-hits", c.readahead_hits);
         ("oom-kills", c.oom_kills);
         ("inj-pager-fetches", c.inj_pager_fetches);
       ])
  (* template keys appear only once the subsystem is used, so snapshots
     (and the BENCH json counters derived from them) of template-free
     runs are bit-identical to pre-template builds *)
  @ (if c.tpl_freezes = 0 then [] else [ ("tpl-freezes", c.tpl_freezes) ])
  @ (if c.tpl_spawns = 0 then []
     else
       [
         ("tpl-spawns", c.tpl_spawns);
         ("tpl-subtrees-shared", c.tpl_subtrees_shared);
         ("tpl-pages-shared", c.tpl_pages_shared);
       ])
  (* SMP keys likewise appear only on machines that sent an IPI or moved
     a thread, keeping single-CPU (and legacy-TLB) snapshots unchanged *)
  @ (if c.ipis_sent = 0 then []
     else
       [ ("ipis-sent", c.ipis_sent); ("ipis-received", c.ipis_received) ])
  @ (if c.cpu_migrations = 0 then []
     else [ ("cpu-migrations", c.cpu_migrations) ])
  @ (if c.cpu_steals = 0 then [] else [ ("cpu-steals", c.cpu_steals) ])
  (* socket/poll keys appear only once the socket family is used, so
     snapshots of socket-free runs stay bit-identical to older builds *)
  @ (if c.sock_connects = 0 && c.sock_accepts = 0 then []
     else
       [
         ("sock-connects", c.sock_connects);
         ("sock-refused", c.sock_refused);
         ("sock-accepts", c.sock_accepts);
         ("accept-queue-peak", c.accept_queue_peak);
       ])
  @
  if c.poll_wakeups = 0 then []
  else [ ("poll-wakeups", c.poll_wakeups); ("poll-timeouts", c.poll_timeouts) ]

let to_json c =
  Metrics.Json.obj
    (List.map (fun (k, v) -> (k, Metrics.Json.int v)) (snapshot c)
    @ [
        ("cycles", Metrics.Json.num (Vmem.Cost.total c.by_cost));
        ( "by-kind",
          Metrics.Json.obj
            (List.map (fun (k, n) -> (k, Metrics.Json.int n)) (kinds c)) );
      ])
