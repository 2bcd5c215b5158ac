(* Process lifecycle and signals: termination, reaping, signal delivery
   and the per-process state that rides with them (alarms, atfork
   handlers). *)

open Machine

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

(* Template lifetime: every process whose address space may map a
   template's pinned frames holds a dep on it — the zygote child, its
   fork descendants (their COW/shared clones keep mapping the same
   frames), and the frozen source itself. Deps are released exactly
   where the address space is destroyed, so discard (which un-pins and
   frees the pages) can only run once no mapping is left. *)
let release_tpl_deps t (proc : Proc.t) =
  List.iter
    (fun id ->
      match find_template t id with
      | Some tpl -> tpl.Template.live_deps <- tpl.Template.live_deps - 1
      | None -> ())
    proc.Proc.tpl_deps;
  proc.Proc.tpl_deps <- []

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

(* ------------------------------------------------------------------ *)
(* Syscalls *)

let getpid (proc : Proc.t) = Reply proc.Proc.pid
let getppid (proc : Proc.t) = Reply proc.Proc.parent

let exit t proc code =
  kill_process t proc (Types.Exited code);
  Die

let waitpid t (proc : Proc.t) target =
  block [ proc.Proc.waitpid_waiters ] (fun () ->
      match try_wait t proc target with
      | `Got r -> Some (Ok r)
      | `No_children -> Some (Error Errno.ECHILD)
      | `Wait -> None)

let kill t pid sig_ =
  match find_proc t pid with
  | Some target when Proc.is_alive target ->
    post_signal t target sig_;
    Reply (Ok ())
  | Some _ | None -> Reply (Error Errno.ESRCH)

let sigaction proc sig_ disp =
  if not (Usignal.catchable sig_) then Reply (Error Errno.EINVAL)
  else begin
    let old = Proc.disposition proc sig_ in
    Proc.set_disposition proc sig_ disp;
    Reply (Ok old)
  end

let sigprocmask t (proc : Proc.t) op set =
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

let alarm t (proc : Proc.t) ticks =
  let remaining =
    match Hashtbl.find_opt t.alarms proc.Proc.pid with
    | Some at -> max 0 (at - t.clock)
    | None -> 0
  in
  if ticks = 0 then Hashtbl.remove t.alarms proc.Proc.pid
  else Hashtbl.replace t.alarms proc.Proc.pid (t.clock + ticks);
  Reply remaining

let handled_signals proc name = Reply (Proc.handler_runs proc name)

let atfork_register (proc : Proc.t) handlers =
  proc.Proc.atfork <- proc.Proc.atfork @ [ handlers ];
  Reply ()

let atfork_list (proc : Proc.t) = Reply proc.Proc.atfork
