(** Per-function control-flow graph with fork-result guards.

    Built from a {!Cparse.func}; every call becomes a {!site} with a
    dense id, and branch terminators carry the decoded comparison of a
    fork result against 0/-1 ({!guard}) so {!Dataflow} can refine
    child/parent/error roles along edges. Calls to noreturn functions
    (exec family, [_exit], [abort], ...) cut the edge: what follows
    them lands in unreachable nodes, reported by {!dead_sites}. *)

type site = { s_id : int; s_call : Cparse.call }

type rel = Req0 | Rne0 | Rgt0 | Rlt0 | Rge0 | Rle0 | Req_m1 | Rne_m1
(** Comparison against a literal, subject normalised to the left:
    [pid == 0] and [0 == pid] both decode to [Req0]; [pid > -1]
    decodes to [Rge0]. *)

type subject =
  | Sub_site of int  (** the fork()/vfork() call tested directly *)
  | Sub_var of string  (** variable tested; resolved by the dataflow *)
  | Sub_other

type guard = {
  g_subject : subject;
  g_rel : rel;
  g_true_only : bool;
      (** decoded from one conjunct of [a && b]: only the true edge of
          the whole condition is informative *)
}

type arm = A_case of int option | A_default

type term =
  | T_jump of int
  | T_branch of { br_guard : guard option; br_true : int; br_false : int }
  | T_switch of { sw_subject : subject; sw_arms : (arm * int) list }
      (** a missing [default:] is materialised as an [A_default] arm to
          the join node, so [sw_arms] is the complete successor set *)
  | T_return of Cparse.pos
  | T_exit of Cparse.pos  (** implicit return: falling off the body *)
  | T_dead

type node = { mutable n_sites : site list; mutable n_term : term }

type t = {
  cfg_func : Cparse.func;
  nodes : node array;
  entry : int;
  sites : site array;  (** indexed by [s_id] *)
}

val build : ?noreturn:string list -> Cparse.func -> t

val reachable : t -> bool array
(** per-node, from [entry] *)

val dead_sites : t -> site list
(** Call sites in unreachable nodes (code after noreturn calls, after
    [goto] to an unknown label, unparseable regions), by site id. *)

val negate_rel : rel -> rel

val decode_guard :
  fork_sites:((int * int) * int) list -> Lexer.token list -> guard option
(** Exposed for tests: decode a condition's tokens given the
    [(line, col) -> site id] map of its fork/vfork calls. *)
