(* Threads and process-local mutexes. *)

open Machine

let new_thread t (proc : Proc.t) ~is_main body =
  let tid = t.next_tid in
  t.next_tid <- tid + 1;
  let th = Proc.make_thread ~tid ~owner:proc.Proc.pid ~is_main body in
  (* round-robin placement: deterministic, and it spreads a fork storm
     across every CPU, which is what makes the shootdown study honest *)
  th.Proc.cpu <- t.rr mod Array.length t.runqs;
  t.rr <- t.rr + 1;
  proc.Proc.threads <- th :: proc.Proc.threads;
  proc.Proc.live <- proc.Proc.live + 1;
  enqueue t th;
  th

(* ------------------------------------------------------------------ *)
(* Syscalls *)

let gettid (th : Proc.thread) = Reply th.Proc.tid
let yield () = Reply ()

let thread_create t proc body =
  let thread = new_thread t proc ~is_main:false body in
  Reply (Ok thread.Proc.tid)

let mutex_create (proc : Proc.t) = Reply (Sync.create proc.Proc.mutexes).Sync.id

let mutex_lock (proc : Proc.t) (th : Proc.thread) id =
  match Sync.find proc.Proc.mutexes id with
  | None -> Reply (Error Errno.EINVAL)
  | Some m ->
    block [ m.Sync.waiters ] (fun () ->
        match m.Sync.state with
        | Sync.Unlocked ->
          m.Sync.state <- Sync.Locked_by th.Proc.tid;
          Some (Ok ())
        | Sync.Locked_by owner when owner = th.Proc.tid ->
          Some (Error Errno.EDEADLK)
        | Sync.Locked_by _ -> None)

let mutex_unlock (proc : Proc.t) (th : Proc.thread) id =
  match Sync.find proc.Proc.mutexes id with
  | None -> Reply (Error Errno.EINVAL)
  | Some m -> (
    match m.Sync.state with
    | Sync.Locked_by owner when owner = th.Proc.tid ->
      Sync.unlock m;
      Reply (Ok ())
    | Sync.Locked_by _ -> Reply (Error Errno.EPERM)
    | Sync.Unlocked -> Reply (Error Errno.EINVAL))

let mutex_trylock (proc : Proc.t) (th : Proc.thread) id =
  match Sync.find proc.Proc.mutexes id with
  | None -> Reply (Error Errno.EINVAL)
  | Some m -> (
    match m.Sync.state with
    | Sync.Unlocked ->
      m.Sync.state <- Sync.Locked_by th.Proc.tid;
      Reply (Ok ())
    | Sync.Locked_by owner when owner = th.Proc.tid -> Reply (Ok ())
    | Sync.Locked_by _ -> Reply (Error Errno.EAGAIN))

let mutex_reinit (proc : Proc.t) id =
  match Sync.find proc.Proc.mutexes id with
  | None -> Reply (Error Errno.EINVAL)
  | Some m ->
    Sync.unlock m;
    Reply (Ok ())
