(** The forklint rule registry.

    Each rule encodes one of the paper's fork hazards, with a severity,
    the paper section it operationalises and a fix hint naming the
    spawnlib equivalent. The {!all} rules are {e dataflow} rules: they
    consume {!Dataflow} observations computed over per-function
    {!Cfg}s, so a hazard is only reported on a path that can actually
    be the forked child, stdio facts are killed by [fflush], and fd
    facts must reach a fork on some path. [Ksim.Lint] reuses the same registry metadata for its dynamic
    (trace-replay) findings, so static and dynamic layers report
    identical rule ids.

    Shipped rules:
    - [fork-in-threads] (Error): fork on a path where threads were
      created.
    - [fork-no-exec] (Warn): no child path reaches exec*/_exit.
    - [stdio-before-fork] (Warn): unflushed stdio reaches a fork on
      some path.
    - [unsafe-child-work] (Warn): a function on the {!Signal_safety}
      deny list (or a local function summarised as reaching one) on a
      child path before exec.
    - [fd-no-cloexec] (Warn): an fd created without CLOEXEC reaches a
      fork/spawn on some path.
    - [vfork-misuse] (Error): vfork child doing anything beyond
      exec/_exit (including return).
    - [lock-across-fork] (Error): a pthread mutex is held at a fork
      site.
    - [child-path-return] (Warn): some child path reaches
      return/function-exit without exec*/_exit. *)

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

val all : t list
(** The dataflow registry, in documentation order. *)

val find : string -> t option
(** Look a rule up by id in {!all} (also used by [Ksim.Lint]). *)

val make_diagnostic :
  t -> file:string -> line:int -> col:int -> message:string -> Diagnostic.t
(** Attach registry metadata (severity, citation, hint) to a finding. *)

val check_string : ?rules:t list -> file:string -> string -> Diagnostic.t list
(** Run the registry (default: {!all}) over one file's source; findings
    come back in {!Diagnostic.compare} order. *)

val check_file : ?rules:t list -> string -> (Diagnostic.t list, string) result
(** [Error] carries the I/O failure message. *)
