(** Path-sensitive fork-fact dataflow over {!Cfg}.

    A forward worklist fixpoint tracks live fork/vfork windows with
    child/parent/error role sets (refined along guarded edges, so the
    true edge of [if (pid == 0)] is child-only and an edge whose
    refinement is empty is infeasible), fork-result variable bindings,
    unflushed stdio, un-CLOEXEC'd fds, held mutexes and thread
    creation. A second pass over the stabilised states emits
    {!obs} values that {!Rules} turns into findings.

    Precision policy: inside a fork-child window only callees on the
    {!Signal_safety} deny list — or local functions whose one-level
    {!summary} reaches one — are reported; unknown externs never are.
    Inside a vfork child window every call except exec*/[_exit] is
    reported. *)

module SMap : Map.S with type key = string

(** {2 Name sets} (shared with the v2 rules) *)

(** {2 One-level interprocedural summaries} *)

type summary = {
  sm_forks : bool;
  sm_execs : bool;
  sm_unsafe : string option;  (** first known-unsafe function called *)
  sm_threads : bool;
  sm_flushes : bool;
  sm_stdio : string option;  (** first buffered-stdio write *)
}

(** {2 Roles and state (exposed for tests)} *)

type role = { r_child : bool; r_parent : bool; r_err : bool }

type fork_fact = {
  ff_site : int;
  ff_vfork : bool;
  ff_role : role;
  ff_escaped : bool;
}

type state = {
  st_forks : fork_fact list;
  st_binds : (string * int) list;
  st_dirty : int list;
  st_fds : (int * string option) list;
  st_locks : (int * string) list;
  st_thread : int option;
}

(** {2 Observations} *)

type obs =
  | O_unsafe_child of {
      o_at : Cparse.call;
      o_fork : Cparse.call;
      o_via : string option;  (** unsafe callee reached via a summary *)
    }
  | O_vfork_call of { o_at : Cparse.call; o_vfork : Cparse.call }
  | O_vfork_return of { o_pos : Cparse.pos; o_vfork : Cparse.call }
  | O_vfork_no_escape of Cparse.call
  | O_fork_no_escape of Cparse.call
      (** no child-capable path from this fork reaches exec*/[_exit] *)
  | O_stdio_at_fork of { o_fork : Cparse.call; o_stdio : Cparse.call }
  | O_threads_at_fork of { o_fork : Cparse.call; o_thread : Cparse.call }
  | O_lock_at_fork of { o_fork : Cparse.call; o_lock : Cparse.call }
  | O_fd_leak of { o_open : Cparse.call; o_spawn : Cparse.call }
  | O_child_return of { o_pos : Cparse.pos; o_fork : Cparse.call }
      (** a child-capable path reaches return/function-exit unescaped *)

type result = {
  res_cfg : Cfg.t;
  res_obs : obs list;  (** node order, then event order within a node *)
  res_dead : Cfg.site list;
}

val analyze : ?summaries:summary SMap.t -> Cfg.t -> result

val analyze_tokens : Lexer.token list -> result list
(** Parse, summarise every function (one level), analyse each CFG. *)
