(* Dynamic twin of the forklint static rules: replay a kernel trace and
   flag the same hazards as they were actually observed at runtime.
   Findings reuse the Forklore.Rules registry metadata (ids, severity,
   citation, hint) so a static finding and a dynamic finding for the
   same hazard are the same rule, and the two layers can be
   cross-validated fixture-for-fixture.

   Everything it knows about an event comes from the event's typed
   [Trace.detail] (live threads at fork, the child a creation made, fds
   an exec inherits, the mutex a lock names); the trace holds no string
   arguments to fall back on.

   Positions: [file] is the trace name, [line] is the 1-based event
   sequence number the finding anchors to, [col] is always 1. *)

type origin = Forked | Vforked | Spawned

type pstate = {
  mutable origin : origin option;  (* None: init or pre-trace process *)
  mutable execed : bool;
  mutable exited : bool;
  mutable vfork_flagged : bool;
  mutable born_seq : int;
  mutable pre_exec : Trace.event list;  (* newest first, Forked only *)
  mutable held : int list;  (* mutex ids locked and not yet unlocked *)
}

let fresh () =
  {
    origin = None;
    execed = false;
    exited = false;
    vfork_flagged = false;
    born_seq = 0;
    pre_exec = [];
    held = [];
  }

(* syscalls that are not async-signal-safe territory for a forked child
   on its way to exec: memory management, locking, thread creation *)
let unsafe_child_syscalls =
  [ "mmap"; "brk"; "mutex_lock"; "mutex_create"; "thread_create" ]

let emit diags rule_id ~file ~line message =
  match Forklore.Rules.find rule_id with
  | None -> invalid_arg (Printf.sprintf "Ksim.Lint: unknown rule %s" rule_id)
  | Some r ->
    diags :=
      Forklore.Rules.make_diagnostic r ~file ~line ~col:1 ~message :: !diags

let check ?(file = "<ksim-trace>") tr =
  let procs : (Types.pid, pstate) Hashtbl.t = Hashtbl.create 16 in
  let state pid =
    match Hashtbl.find_opt procs pid with
    | Some s -> s
    | None ->
      let s = fresh () in
      Hashtbl.add procs pid s;
      s
  in
  let diags = ref [] in
  let line_of (e : Trace.event) = e.Trace.seq + 1 in
  let flag_held_locks (e : Trace.event) s =
    match s.held with
    | [] -> ()
    | held ->
      emit diags "lock-across-fork" ~file ~line:(line_of e)
        (Printf.sprintf
           "pid %d created a process while holding mutex%s %s; the child's \
            cop%s stay%s locked forever"
           e.Trace.pid
           (if List.length held > 1 then "es" else "")
           (String.concat ", " (List.map string_of_int (List.rev held)))
           (if List.length held > 1 then "ies" else "y")
           (if List.length held > 1 then "" else "s"))
  in
  let on_event (e : Trace.event) =
    let s = state e.Trace.pid in
    (match e.Trace.what with
    | "fork" | "fork_eager" | "vfork" when s.held <> [] -> flag_held_locks e s
    | _ -> ());
    (match (e.Trace.what, e.Trace.detail) with
    | "mutex_lock", Trace.D_mutex { mutex } ->
      if not (List.mem mutex s.held) then s.held <- mutex :: s.held
    | "mutex_unlock", Trace.D_mutex { mutex } ->
      s.held <- List.filter (fun h -> h <> mutex) s.held
    | _ -> ());
    (match (e.Trace.what, e.Trace.detail) with
    | ("fork" | "fork_eager"), Trace.D_fork { live_threads = n } when n > 1 ->
      emit diags "fork-in-threads" ~file ~line:(line_of e)
        (Printf.sprintf
           "pid %d forked with %d live threads; only the forking thread \
            exists in the child and any mutex the others held is orphaned"
           e.Trace.pid n)
    | ( ("fork_child" | "vfork_child" | "spawn_child"),
        Trace.D_child { child; _ } ) ->
      let cs = state child in
      cs.origin <-
        Some
          (match e.Trace.what with
          | "fork_child" -> Forked
          | "vfork_child" -> Vforked
          | _ -> Spawned);
      cs.born_seq <- e.Trace.seq
    | "execve", detail ->
      (match detail with
      | Trace.D_exec { inherited_fds = n } when n > 0 ->
        emit diags "fd-no-cloexec" ~file ~line:(line_of e)
          (Printf.sprintf
             "pid %d execed with %d inherited fd(s) beyond stdio not marked \
              close-on-exec"
             e.Trace.pid n)
      | _ -> ());
      if (not s.execed) && s.origin = Some Forked then
        List.iter
          (fun (pe : Trace.event) ->
            if List.mem pe.Trace.what unsafe_child_syscalls then
              emit diags "unsafe-child-work" ~file ~line:(line_of pe)
                (Printf.sprintf
                   "pid %d ran %s between fork and exec; that window is \
                    async-signal-safe-only in a multithreaded parent"
                   pe.Trace.pid pe.Trace.what))
          (List.rev s.pre_exec);
      s.execed <- true
    | "exit", _ -> s.exited <- true
    | _ -> ());
    (* a vfork child may only exec or exit; anything else it runs is
       borrowing the parent's address space and stack *)
    (match (s.origin, e.Trace.what) with
    | Some Vforked, ("execve" | "exit") -> ()
    | Some Vforked, ("fork_child" | "vfork_child" | "spawn_child") -> ()
    | Some Vforked, other when (not s.execed) && not s.vfork_flagged ->
      s.vfork_flagged <- true;
      emit diags "vfork-misuse" ~file ~line:(line_of e)
        (Printf.sprintf
           "vforked pid %d ran %s before exec/_exit while borrowing the \
            parent's address space"
           e.Trace.pid other)
    | _ -> ());
    if s.origin = Some Forked && not s.execed then s.pre_exec <- e :: s.pre_exec
  in
  (* span End events repeat the Begin's payload; replay each syscall
     once by skipping them *)
  List.iter
    (fun (e : Trace.event) -> if e.Trace.phase <> Trace.End then on_event e)
    (Trace.events tr);
  (* end of trace: forked children that never reached exec *)
  Hashtbl.iter
    (fun pid s ->
      if s.origin = Some Forked && not s.execed then
        emit diags "fork-no-exec" ~file ~line:(s.born_seq + 1)
          (Printf.sprintf
             "forked pid %d never execed; it ran (or is still running) with \
              the parent's entire inherited state"
             pid))
    procs;
  List.sort Forklore.Diagnostic.compare !diags
