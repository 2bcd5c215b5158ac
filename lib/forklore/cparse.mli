(** Tolerant C statement parser for the fork-hazard analysis.

    Recovers function bodies and the statement kinds that shape
    control flow from the {!Lexer} token stream; inside every
    expression it extracts call sites with argument tokens and the
    assigned-to variable when the result is captured
    ([pid_t pid = fork();]). [parse] never raises: unparseable input
    degrades into opaque expression statements that {!Cfg} then
    reports as dead rather than mis-analysed. *)

type pos = { p_line : int; p_col : int }

type call = {
  c_name : string;
  c_line : int;
  c_col : int;
  c_args : Lexer.token list;  (** tokens between the call's parens *)
  c_assigned_to : string option;
      (** [v] in [v = f(...)] / [T v = f(...)] / [v = (T)f(...)] *)
}

type expr = { x_toks : Lexer.token list; x_calls : call list }

type stmt =
  | S_block of stmt list
  | S_if of { i_cond : expr; i_then : stmt; i_else : stmt option }
  | S_while of { w_cond : expr; w_body : stmt }
  | S_do of { d_body : stmt; d_cond : expr }
  | S_for of {
      f_init : expr option;
      f_test : expr option;
      f_step : expr option;
      f_body : stmt;
    }
  | S_switch of { sw_cond : expr; sw_body : stmt }
  | S_case of { case_value : Lexer.token list; case_pos : pos }
  | S_default of pos
  | S_label of string * pos
  | S_goto of string * pos
  | S_return of { r_expr : expr option; r_pos : pos }
  | S_break of pos
  | S_continue of pos
  | S_expr of expr  (** expression or declaration statement *)
  | S_empty

type func = {
  fn_name : string;
  fn_pos : pos;
  fn_body : stmt list;
  fn_end : pos;  (** the body's closing brace *)
}

val parse : Lexer.token list -> func list
(** Function definitions found at brace depth 0, in source order. *)

val calls_of_slice : Lexer.token array -> int -> int -> call list
(** [calls_of_slice toks lo hi]: call sites in [toks.(lo..hi-1)] in
    source order, with declarator-position identifier-['('] pairs
    ([pid_t fork(void);]) excluded. *)

val calls_of_func : func -> call list
