(** Simulated POSIX signals: numbers, sets, dispositions and default
    actions. (Named [Usignal] to avoid clashing with the compiler's
    [Signal] conventions.) *)

type t =
  | SIGHUP
  | SIGINT
  | SIGQUIT
  | SIGILL
  | SIGABRT
  | SIGFPE
  | SIGKILL
  | SIGSEGV
  | SIGPIPE
  | SIGALRM
  | SIGTERM
  | SIGUSR1
  | SIGUSR2
  | SIGCHLD
  | SIGCONT
  | SIGSTOP

val all : t list
val number : t -> int
(** Conventional Linux numbering (SIGHUP = 1, ...). *)

val of_number : int -> t option
val equal : t -> t -> bool
val pp : Format.formatter -> t -> unit

type default_action = Terminate | Ignore_sig | Stop | Continue

val default_action : t -> default_action

val catchable : t -> bool
(** SIGKILL and SIGSTOP cannot be caught, blocked or ignored. *)

(** Signal sets as bitmasks. *)
module Set : sig
  type signal := t
  type t

  val empty : t
  val full : t
  (** All catchable signals. *)

  val add : signal -> t -> t
  val remove : signal -> t -> t
  val mem : signal -> t -> bool
  val union : t -> t -> t
  val inter : t -> t -> t
  val diff : t -> t -> t
  val of_list : signal list -> t
  val to_list : t -> signal list
  val is_empty : t -> bool
  val equal : t -> t -> bool
end

(** What a process does with a delivered signal. [Handler] carries a
    symbolic identifier: the simulator counts handler invocations rather
    than running user code asynchronously. *)
type disposition = Default | Ignored | Handler of string
