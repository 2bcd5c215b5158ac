(* Process creation: fork, vfork, posix_spawn, exec, the process builder
   and zygote templates, with the image loader, the blame plumbing and
   the one PCB constructor they share. *)

open Machine

(* ------------------------------------------------------------------ *)
(* Image loading and address-space layout *)

let find_program t name = Hashtbl.find_opt t.programs name

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
(* The PCB *)

(* The child's copy of an fd table (fork, spawn, template freeze and
   zygote spawn), charged per inherited descriptor. *)
let clone_fds t fdt =
  let fdt = Fd_table.clone fdt in
  Vmem.Cost.charge t.cost Fd_inherit
    ((params t).Vmem.Cost.fd_clone *. float_of_int (Fd_table.count fdt));
  fdt

(* The exec rule for a signal disposition, from the image that ran to
   the one that starts: ignored signals stay ignored, caught ones reset
   to default. *)
let exec_disposition = function
  | Usignal.Ignored -> Usignal.Ignored
  | Usignal.Handler _ | Usignal.Default -> Usignal.Default

(* The PCB constructor of every creation path. It draws the pid, builds
   the PCB with the dispositions [sigdisp] and the mask [sigmask] (the
   defaults when absent) and runs [setup] on it (a spawn's file
   actions). A failed [setup] leaves the pid drawn and nothing else
   behind. Otherwise the process enters the pid table as [parent]'s
   child (init has no parent), and its main thread starts on [body] (a
   builder embryo has none yet). Each caller charges the PCB where its
   creation style always has. *)
let new_process t ?parent ?sigdisp ?sigmask ?(setup = fun _ -> Ok ()) ~aspace
    ~fdt ~cwd ~program body =
  let ppid = match parent with Some (p : Proc.t) -> p.Proc.pid | None -> 0 in
  let pid = t.next_pid in
  t.next_pid <- pid + 1;
  let child = Proc.make ~pid ~parent:ppid ~aspace ~fdt ~cwd ~program in
  (match sigdisp with
  | Some d -> Array.blit d 0 child.Proc.sigdisp 0 (Array.length d)
  | None -> ());
  (match sigmask with Some m -> child.Proc.sigmask <- m | None -> ());
  match setup child with
  | Error e -> Error e
  | Ok () ->
    Hashtbl.replace t.procs child.Proc.pid child;
    (match parent with
    | Some p -> p.Proc.children <- child.Proc.pid :: p.Proc.children
    | None -> ());
    (match body with
    | Some body -> ignore (Threads.new_thread t child ~is_main:true body)
    | None -> ());
    Ok child

let pid_of (child : Proc.t) = child.Proc.pid

(* Shared plumbing of fork and vfork: everything except the address
   space. Implements the POSIX inheritance matrix: dispositions and mask
   copied, pending signals cleared, only the calling thread, mutex memory
   copied verbatim, alarms and file locks NOT inherited. *)
let forked_child t (parent : Proc.t) ~aspace body =
  Vmem.Cost.charge t.cost Proc_create (params t).Vmem.Cost.proc_create;
  let fdt = clone_fds t parent.Proc.fdt in
  new_process t ~parent ~sigdisp:parent.Proc.sigdisp ~sigmask:parent.Proc.sigmask
    ~aspace ~fdt ~cwd:parent.Proc.cwd ~program:parent.Proc.program (Some body)
  |> Result.map (fun (child : Proc.t) ->
         child.Proc.mutexes <- Sync.clone_table parent.Proc.mutexes;
         child.Proc.atfork <- parent.Proc.atfork;
         child)

(* A process that maps template frames holds a dep on each template
   ({!Lifecycle.release_aspace} drops them). *)
let acquire_tpl_deps t ids =
  List.iter
    (fun id ->
      match find_template t id with
      | Some tpl -> tpl.Template.live_deps <- tpl.Template.live_deps + 1
      | None -> ())
    ids

let do_fork t (parent : Proc.t) ~eager body =
  let clone =
    if eager then Vmem.Addr_space.clone_eager else Vmem.Addr_space.clone_cow
  in
  match clone parent.Proc.aspace with
  | Error (`Commit_limit | `Out_of_memory) -> Error Errno.ENOMEM
  | Ok aspace ->
    forked_child t parent ~aspace body
    |> Result.map (fun (child : Proc.t) ->
           (* the child's clone keeps mapping any template pages the
              parent mapped, so it holds the same template deps *)
           child.Proc.tpl_deps <- parent.Proc.tpl_deps;
           acquire_tpl_deps t child.Proc.tpl_deps;
           child.Proc.pid)

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
    match Fds.open_ofd t child path flags with
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
    | Ok aspace ->
      let fdt = clone_fds t parent.Proc.fdt in
      let attr = req.Types.attr in
      let rec apply child = function
        | [] -> Ok ()
        | action :: rest -> (
          match apply_file_action t child action with
          | Ok () -> apply child rest
          | Error e -> Error e)
      in
      let setup child =
        match apply child req.Types.file_actions with
        | Error e ->
          Fd_table.close_all fdt;
          Vmem.Addr_space.destroy aspace;
          Error e
        | Ok () -> Ok (Fd_table.close_cloexec fdt)
      in
      (* signal setup: exec semantics, unless the attributes ask for the
         wholesale reset of a fresh PCB *)
      new_process t ~parent
        ?sigdisp:
          (if attr.Types.reset_signals then None
           else Some (Array.map exec_disposition parent.Proc.sigdisp))
        ~sigmask:(Option.value attr.Types.mask ~default:parent.Proc.sigmask)
        ~setup ~aspace ~fdt ~cwd:parent.Proc.cwd ~program:prog.Program.name
        (Some (prog.Program.main ~argv:req.Types.argv))
      |> Result.map pid_of)

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
          match Fd_table.alloc fdt ~at_least:fd ~cloexec:false (Fds.console_ofd t) with
          | Ok got -> assert (got = fd)
          | Error _ -> assert false)
        [ 0; 1; 2 ];
      new_process t ~aspace ~fdt ~cwd:"/" ~program:prog.Program.name
        (Some (prog.Program.main ~argv))
      |> Result.map pid_of)

(* ------------------------------------------------------------------ *)
(* Blame-ledger plumbing *)

(* Every creation-shaped request allocates a ledger event and runs its
   handler under that event's Sync context: the setup half of the bill
   (page-table walk, VMA clones, PCB, fd table, shootdown) lands on the
   event immediately. The deferred half — COW breaks induced by the
   sharing it created — arrives later via the address spaces' blame
   origins (see Addr_space.set_blame_origin). A failed creation keeps
   its ledger row, flagged. *)
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

(* ------------------------------------------------------------------ *)
(* Syscalls *)

let fork t (proc : Proc.t) th body =
  Reply
    (create_child t proc th ~style:"fork"
       ~on_child:(fun ev child ->
         (* a COW fork re-downgrades every resident private page on
            BOTH sides, so this event becomes the newest sharing
            origin of parent and child alike *)
         Vmem.Addr_space.set_blame_origin proc.Proc.aspace ev;
         stamp_child_origin t ev child)
       (fun () -> do_fork t proc ~eager:false body))

(* eager copies up front: no COW sharing, so no origin to stamp; a trace
   replays the child as a plain fork's *)
let fork_eager t proc th body =
  Reply
    (create_child t proc th ~style:"fork_eager" ~trace_style:"fork"
       (fun () -> do_fork t proc ~eager:true body))

let vfork t (proc : Proc.t) th body =
  match
    create_child t proc th ~style:"vfork" (fun () ->
        (* the child borrows the parent's address space: no copy at all *)
        forked_child t proc ~aspace:proc.Proc.aspace body
        |> Result.map (fun (child : Proc.t) ->
               child.Proc.vfork_active <- true;
               child.Proc.pid))
  with
  | Error e -> Reply (Error e)
  | Ok child_pid -> (
    (* the parent thread blocks until the child execs or exits *)
    match find_proc t child_pid with
    | None -> Reply (Ok child_pid)
    | Some child ->
      block [ child.Proc.vfork_waiters ] (fun () ->
          if child.Proc.vfork_active && Proc.is_alive child then None
          else Some (Ok child_pid)))

(* spawn builds a fresh image: no sharing, hence no deferred bill —
   exactly the paper's point, now visible as an empty column *)
let spawn t proc th req =
  Reply (create_child t proc th ~style:"spawn" (fun () -> do_spawn t proc req))

let exec t (proc : Proc.t) (th : Proc.thread) path argv =
  match find_program t path with
  | None -> Reply (Error Errno.ENOENT)
  | Some prog -> (
    match build_image t prog with
    | Error e -> Reply (Error e)
    | Ok aspace ->
      (* only the calling thread survives *)
      List.iter
        (fun (other : Proc.thread) ->
          if other.Proc.tid <> th.Proc.tid then Lifecycle.retire_thread proc other)
        proc.Proc.threads;
      proc.Proc.threads <- [ th ];
      Lifecycle.release_aspace t proc;
      proc.Proc.aspace <- aspace;
      Array.map_inplace exec_disposition proc.Proc.sigdisp;
      Fd_table.close_cloexec proc.Proc.fdt;
      (* mutex memory and atfork registrations die with the old image *)
      proc.Proc.mutexes <- Sync.create_table ();
      proc.Proc.atfork <- [];
      proc.Proc.program <- prog.Program.name;
      (* restart this thread at the new image's entry point *)
      th.Proc.entry <- Some (Proc.Start (prog.Program.main ~argv));
      th.Proc.tstate <- Proc.Ready;
      enqueue t th;
      Die)

let pb_create t (proc : Proc.t) th =
  Reply
    (create_child t proc th ~style:"builder" (fun () ->
         Vmem.Cost.charge t.cost Proc_create (params t).Vmem.Cost.proc_create;
         let aspace = fresh_aspace t in
         new_process t ~parent:proc ~aspace
           ~fdt:(Fd_table.create ~max_fds:t.config.max_fds ())
           ~cwd:proc.Proc.cwd ~program:"<embryo>" None
         |> Result.map pid_of))

let pb_map t proc ~pid ~len ~perm =
  match embryo_of t proc pid with
  | Error e -> Reply (Error e)
  | Ok child ->
    Reply
      (builder_blame t pid (fun () ->
           Memory.map_anon child.Proc.aspace ~len ~perm))

let pb_write t proc ~pid ~addr ~data =
  match embryo_of t proc pid with
  | Error e -> Reply (Error e)
  | Ok child ->
    Reply (builder_blame t pid (fun () -> Memory.write_into child.Proc.aspace addr data))

let pb_copy_fd t (proc : Proc.t) ~pid ~src ~dst =
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
        Reply (Error e)))

let pb_start t proc ~pid ~path ~argv =
  match embryo_of t proc pid with
  | Error e -> Reply (Error e)
  | Ok child -> (
    match find_program t path with
    | None -> Reply (Error Errno.ENOENT)
    | Some prog -> (
      match builder_blame t pid (fun () -> load_image t prog child.Proc.aspace) with
      | Error e -> Reply (Error e)
      | Ok () ->
        child.Proc.program <- prog.Program.name;
        ignore (Threads.new_thread t child ~is_main:true (prog.Program.main ~argv));
        Reply (Ok ())))

let template_freeze t (proc : Proc.t) pid =
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
      (* a COW sharer or an earlier template still holds frames of this
         image: pinning them would steal pages someone else counts on *)
      Reply (Error Errno.EBUSY)
    else if Vmem.Addr_space.pager_active target.Proc.aspace then
      (* unresolved pager-backed pages: sealing now would snapshot
         holes. Warm the image (touch it) and retry *)
      Reply (Error Errno.EAGAIN)
    else begin
      let ev, r =
        creation_blame t ~style:"freeze" ~parent:proc.Proc.pid (fun () ->
            let commit_pages = Vmem.Addr_space.committed_pages target.Proc.aspace in
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
           against the pinned template frames: its later writes are this
           event's deferred bill *)
        Vmem.Addr_space.set_blame_origin target.Proc.aspace ev);
      Reply r
    end

let template_spawn t (proc : Proc.t) th tpl body =
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
             Vmem.Cost.charge t.cost Proc_create (params t).Vmem.Cost.proc_create;
             let fdt = clone_fds t template.Template.fdt in
             new_process t ~parent:proc ~sigdisp:template.Template.sigdisp
               ~sigmask:template.Template.sigmask ~aspace ~fdt
               ~cwd:template.Template.cwd ~program:template.Template.program
               (Some body)
             |> Result.map (fun (child : Proc.t) ->
                    child.Proc.tpl_deps <- [ template.Template.id ];
                    template.Template.live_deps <- template.Template.live_deps + 1;
                    template.Template.spawns <- template.Template.spawns + 1;
                    Kstat.on_template_spawn t.kstat ~subtrees
                      ~pages:template.Template.resident;
                    child.Proc.pid)))

let template_discard t id =
  match find_template t id with
  | None -> Reply (Error Errno.EINVAL)
  | Some template ->
    if template.Template.live_deps > 0 then Reply (Error Errno.EBUSY)
    else begin
      Hashtbl.remove t.templates id;
      Template.destroy template;
      Reply (Ok ())
    end
