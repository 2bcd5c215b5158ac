(* Memory syscalls and the Demand-policy OOM killer. *)

open Machine

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
        Lifecycle.kill_process t victim (Types.Killed Usignal.SIGKILL)
      | None -> ());
      touch_with_oom t proc ~addr ~len)
  | r -> r

let mem_errno = function
  | `Segfault -> Errno.EFAULT
  | `Perm_denied -> Errno.EACCES
  | `Out_of_memory -> Errno.ENOMEM

let map_anon aspace ~len ~perm =
  match Vmem.Addr_space.mmap ~len ~perm ~kind:Vmem.Vma.Anon aspace with
  | Ok addr -> Ok addr
  | Error (`No_space | `Commit_limit) -> Error Errno.ENOMEM
  | Error (`Overlap | `Invalid) -> Error Errno.EINVAL

let write_into aspace addr data =
  Result.map_error mem_errno (Vmem.Addr_space.write_bytes aspace ~addr data)

(* ------------------------------------------------------------------ *)
(* Syscalls *)

let mmap (proc : Proc.t) ~len ~perm = Reply (map_anon proc.Proc.aspace ~len ~perm)

let munmap (proc : Proc.t) ~addr ~len =
  match Vmem.Addr_space.munmap proc.Proc.aspace ~addr ~len with
  | Ok () -> Reply (Ok ())
  | Error `Invalid -> Reply (Error Errno.EINVAL)

let brk (proc : Proc.t) request =
  match request with
  | None -> Reply (Ok (Vmem.Addr_space.brk proc.Proc.aspace))
  | Some addr -> (
    match Vmem.Addr_space.set_brk proc.Proc.aspace (Vmem.Addr.align_up addr) with
    | Ok () -> Reply (Ok (Vmem.Addr_space.brk proc.Proc.aspace))
    | Error (`Commit_limit | `Overlap) -> Reply (Error Errno.ENOMEM)
    | Error `Invalid -> Reply (Error Errno.EINVAL))

let mem_read (proc : Proc.t) ~addr ~len =
  if len < 0 then Reply (Error Errno.EINVAL)
  else
    Reply
      (Result.map_error mem_errno
         (Vmem.Addr_space.read_bytes proc.Proc.aspace ~addr ~len))

let mem_write (proc : Proc.t) ~addr ~data = Reply (write_into proc.Proc.aspace addr data)

let touch t proc ~addr ~len =
  Reply (Result.map_error mem_errno (touch_with_oom t proc ~addr ~len))
