(* The forklint rule registry.

   The rules are dataflow rules — they consume the {!Dataflow}
   observations computed over per-function {!Cfg}s, so a hazard is only
   reported on a path that can actually be the forked child (the true
   edge of [if (pid == 0)]), stdio facts are killed by fflush, and fd
   facts must *reach* a fork on some path.

   The registry shares ids and metadata with [Ksim.Lint], the dynamic
   (trace-replay) checker, so static and dynamic findings cross-
   validate. *)

type ctx = {
  file : string;
  results : Dataflow.result list;  (** one per parsed function *)
}

type finding = { f_line : int; f_col : int; f_message : string }

type t = {
  id : string;
  severity : Diagnostic.severity;
  summary : string;
  citation : string;
  hint : string;
  check : ctx -> finding list;
}

let build_ctx ~file toks = { file; results = Dataflow.analyze_tokens toks }

(* ------------------------------------------------------------------ *)
(* Rule metadata: id, severity, summary, citation and hint *)

let meta_fork_in_threads =
  ( "fork-in-threads",
    Diagnostic.Error,
    "fork() in a program that creates threads",
    "\194\1672.1 \"fork doesn't compose\": only the calling thread is \
     replicated; locks held by other threads stay locked forever in the \
     child",
    "create the child with posix_spawn (Spawnlib.Spawn) instead of \
     fork+exec; it does not copy thread or lock state" )

let meta_fork_no_exec =
  ( "fork-no-exec",
    Diagnostic.Warn,
    "fork() whose child branch never reaches exec or _exit",
    "\194\1672/\194\1674 \"fork is no longer simple\": a child that keeps \
     running inherits the full parent state (buffers, fds, locks, secrets)",
    "if the child only runs another program, exec or _exit on the child \
     branch; if it is a worker, spawn a fresh worker image with posix_spawn"
  )

let meta_stdio_before_fork =
  ( "stdio-before-fork",
    Diagnostic.Warn,
    "buffered stdio written before fork without fflush",
    "\194\1672.1: user-space stdio buffers are duplicated by fork and \
     flushed by both processes, emitting output twice",
    "fflush(NULL) immediately before fork, write(2) directly, or use \
     posix_spawn which shares no buffers" )

let meta_unsafe_child_work =
  ( "unsafe-child-work",
    Diagnostic.Warn,
    "non-async-signal-safe work between fork and exec",
    "\194\1672.1: after forking a multithreaded process only \
     async-signal-safe code is safe in the child until exec; malloc or \
     stdio can deadlock on an orphaned lock",
    "express fd redirections and attribute changes as posix_spawn file \
     actions/attributes and delete the in-child setup code" )

let meta_fd_no_cloexec =
  ( "fd-no-cloexec",
    Diagnostic.Warn,
    "fd created without CLOEXEC in a file that forks or spawns",
    "\194\1673 \"fork is insecure by default\": every fd leaks into every \
     child unless explicitly marked close-on-exec",
    "open with O_CLOEXEC (pipe2/SOCK_CLOEXEC for pipes and sockets) and \
     pass the fds a child should receive via posix_spawn file actions" )

let meta_vfork_misuse =
  ( "vfork-misuse",
    Diagnostic.Error,
    "vfork child doing anything beyond exec/_exit",
    "\194\1675/\194\1678: the vfork child borrows the parent's address \
     space and stack; anything but an immediate execve/_exit corrupts the \
     parent",
    "keep the vfork child to execve/_exit only (what \
     spawnlib/spawn_stubs.c does), or use posix_spawn" )

let meta_lock_across_fork =
  ( "lock-across-fork",
    Diagnostic.Error,
    "fork() while holding a pthread mutex",
    "\194\1672.1: fork replicates the mutex in its locked state into the \
     child; with other threads gone, nothing will ever unlock the child's \
     copy",
    "unlock (or scope the critical section to exclude process creation) \
     before forking, or use posix_spawn and keep the lock parent-only" )

let meta_child_path_return =
  ( "child-path-return",
    Diagnostic.Warn,
    "fork child path falls through into parent code",
    "\194\1672/\194\1674: a child that returns from the forking function \
     keeps executing the caller's logic — double side effects, duplicated \
     output, and two processes believing they are the parent",
    "end every child branch with exec*/_exit(127); never let it reach the \
     function's return" )

let make ~check (id, severity, summary, citation, hint) =
  { id; severity; summary; citation; hint; check }

(* ------------------------------------------------------------------ *)
(* Dataflow rules over {!Dataflow.obs} *)

let at (c : Cparse.call) msg =
  { f_line = c.Cparse.c_line; f_col = c.Cparse.c_col; f_message = msg }

let at_pos (p : Cparse.pos) msg =
  { f_line = p.Cparse.p_line; f_col = p.Cparse.p_col; f_message = msg }

(* one finding per source position (an fd can reach several forks; the
   defect is still the one open() call) *)
let dedupe findings =
  let seen = Hashtbl.create 16 in
  List.filter
    (fun f ->
      let k = (f.f_line, f.f_col) in
      if Hashtbl.mem seen k then false
      else begin
        Hashtbl.add seen k ();
        true
      end)
    findings

let obs_findings ctx f =
  dedupe
    (List.concat_map
       (fun (r : Dataflow.result) -> List.filter_map f r.Dataflow.res_obs)
       ctx.results)

let rule_fork_in_threads =
  make meta_fork_in_threads ~check:(fun ctx ->
      obs_findings ctx (function
        | Dataflow.O_threads_at_fork { o_fork; o_thread } ->
          Some
            (at o_fork
               (Printf.sprintf
                  "%s() on a path where threads exist (%s at line %d); in \
                   the child only the forking thread exists and any mutex \
                   another thread held is orphaned"
                  o_fork.Cparse.c_name o_thread.Cparse.c_name
                  o_thread.Cparse.c_line))
        | _ -> None))

let rule_fork_no_exec =
  make meta_fork_no_exec ~check:(fun ctx ->
      obs_findings ctx (function
        | Dataflow.O_fork_no_escape c ->
          Some
            (at c
               (Printf.sprintf
                  "%s() but no exec*/_exit is reachable on any child path: \
                   the child keeps running with the parent's entire \
                   inherited state"
                  c.Cparse.c_name))
        | _ -> None))

let rule_stdio_before_fork =
  make meta_stdio_before_fork ~check:(fun ctx ->
      obs_findings ctx (function
        | Dataflow.O_stdio_at_fork { o_fork; o_stdio } ->
          Some
            (at o_fork
               (Printf.sprintf
                  "%s() with unflushed stdio output on this path (%s at \
                   line %d): the child inherits and may re-flush the same \
                   bytes"
                  o_fork.Cparse.c_name o_stdio.Cparse.c_name
                  o_stdio.Cparse.c_line))
        | _ -> None))

let rule_unsafe_child_work =
  make meta_unsafe_child_work ~check:(fun ctx ->
      obs_findings ctx (function
        | Dataflow.O_unsafe_child { o_at; o_fork; o_via } ->
          let callee =
            match o_via with
            | None -> Printf.sprintf "%s()" o_at.Cparse.c_name
            | Some u ->
              Printf.sprintf "%s() (which calls %s)" o_at.Cparse.c_name u
          in
          Some
            (at o_at
               (Printf.sprintf
                  "%s on a child path of fork (line %d) before exec; it is \
                   not async-signal-safe (POSIX.1-2017 XSH \194\1672.4.3) \
                   and can deadlock in the forked child"
                  callee o_fork.Cparse.c_line))
        | _ -> None))

let rule_fd_no_cloexec =
  make meta_fd_no_cloexec ~check:(fun ctx ->
      obs_findings ctx (function
        | Dataflow.O_fd_leak { o_open; o_spawn } ->
          let reach =
            Printf.sprintf "reaches %s() at line %d" o_spawn.Cparse.c_name
              o_spawn.Cparse.c_line
          in
          let msg =
            match o_open.Cparse.c_name with
            | "socket" ->
              Printf.sprintf
                "socket() without SOCK_CLOEXEC %s: the fd is inherited by \
                 the child"
                reach
            | "pipe" ->
              Printf.sprintf
                "pipe() cannot set CLOEXEC atomically and %s; use \
                 pipe2(fds, O_CLOEXEC)"
                reach
            | "creat" ->
              Printf.sprintf
                "creat() cannot take O_CLOEXEC and %s; use open(..., \
                 O_CREAT | O_CLOEXEC, ...)"
                reach
            | name ->
              Printf.sprintf
                "%s() without O_CLOEXEC %s: the fd is inherited by the \
                 child"
                name reach
          in
          Some (at o_open msg)
        | _ -> None))

let rule_vfork_misuse =
  make meta_vfork_misuse ~check:(fun ctx ->
      obs_findings ctx (function
        | Dataflow.O_vfork_no_escape c ->
          Some
            (at c
               "vfork() but no execve/_exit is reachable on any child \
                path; the child shares the parent's address space and \
                stack")
        | Dataflow.O_vfork_call { o_at; o_vfork } ->
          Some
            (at o_at
               (Printf.sprintf
                  "%s() on a child path of vfork (line %d): only \
                   execve/_exit are permitted there"
                  o_at.Cparse.c_name o_vfork.Cparse.c_line))
        | Dataflow.O_vfork_return { o_pos; o_vfork } ->
          Some
            (at_pos o_pos
               (Printf.sprintf
                  "return reachable from the vfork child (vfork at line \
                   %d): returning from the borrowed stack frame is \
                   undefined behaviour"
                  o_vfork.Cparse.c_line))
        | _ -> None))

let rule_lock_across_fork =
  make meta_lock_across_fork ~check:(fun ctx ->
      obs_findings ctx (function
        | Dataflow.O_lock_at_fork { o_fork; o_lock } ->
          Some
            (at o_fork
               (Printf.sprintf
                  "%s() while a mutex is held (%s at line %d): the child's \
                   copy of the mutex stays locked forever"
                  o_fork.Cparse.c_name o_lock.Cparse.c_name
                  o_lock.Cparse.c_line))
        | _ -> None))

let rule_child_path_return =
  make meta_child_path_return ~check:(fun ctx ->
      obs_findings ctx (function
        | Dataflow.O_child_return { o_pos; o_fork } ->
          Some
            (at_pos o_pos
               (Printf.sprintf
                  "this return is reachable from the child of fork (line \
                   %d) without exec*/_exit: the child falls through into \
                   the parent's code"
                  o_fork.Cparse.c_line))
        | _ -> None))

let all =
  [
    rule_fork_in_threads;
    rule_fork_no_exec;
    rule_stdio_before_fork;
    rule_unsafe_child_work;
    rule_fd_no_cloexec;
    rule_vfork_misuse;
    rule_lock_across_fork;
    rule_child_path_return;
  ]

let find id = List.find_opt (fun r -> r.id = id) all

(* ------------------------------------------------------------------ *)
(* Engine *)

let make_diagnostic r ~file ~line ~col ~message =
  {
    Diagnostic.rule = r.id;
    severity = r.severity;
    file;
    line;
    col;
    message;
    citation = r.citation;
    hint = r.hint;
  }

let check_string ?(rules = all) ~file src =
  let ctx = build_ctx ~file (Lexer.tokenize src) in
  List.concat_map
    (fun r ->
      List.map
        (fun f ->
          make_diagnostic r ~file ~line:f.f_line ~col:f.f_col
            ~message:f.f_message)
        (r.check ctx))
    rules
  |> List.sort Diagnostic.compare

let check_file ?rules path =
  match In_channel.with_open_bin path In_channel.input_all with
  | contents -> Ok (check_string ?rules ~file:path contents)
  | exception Sys_error msg -> Error msg
