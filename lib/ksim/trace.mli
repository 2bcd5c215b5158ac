(** Bounded ring of kernel events, for tests, debugging, the {!Lint}
    trace checker and the span exporters.

    Syscalls are recorded as typed {e spans}: a [Begin] event at
    dispatch and an [End] event at completion carrying the errno-level
    outcome, the simulated-time duration and any fault injections. Both
    carry the syscall's typed {!detail}; there are no string arguments.
    Flat [Instant] events (child creation, ad-hoc test events) coexist
    with spans in the same ring. *)

type phase =
  | Begin  (** syscall entry *)
  | End
      (** syscall completion (carries [span_ns], [outcome] and
          [injected]) *)
  | Instant  (** flat event; the default for {!record} *)

(** The typed annotation the kernel attaches to a syscall's Begin and
    End events and to creation instants: the one record {!Lint}, the
    span tree and both exporters read. *)
type detail =
  | D_none
  | D_fork of { live_threads : int }  (** threads live at fork time *)
  | D_exec of { inherited_fds : int }  (** fds surviving the exec *)
  | D_exit of { open_fds : int }  (** fds still open at exit *)
  | D_open of { path : string; cloexec : bool }
  | D_child of { child : Types.pid; style : string }
      (** a creation produced [child]; [style] is ["fork"], ["vfork"],
          ["spawn"], ["zygote"] or ["builder"] *)
  | D_tpl of { tpl : int }  (** template spawn and discard *)
  | D_mutex of { mutex : int }  (** lock, unlock and trylock *)
  | D_port of { port : int }  (** bind and connect *)
  | D_listen of { backlog : int }
  | D_poll of { nfds : int; timeout : int }

type outcome = Ok_result | Err of Errno.t

(** Fault injections that hit one syscall, carried by its End event. *)
type injected = {
  reply : Errno.t option;
      (** the errno a dispatch-time trigger replied in place of running
          the syscall *)
  frame_allocs : int;  (** frame allocations denied while it ran *)
  commits : int;  (** commit charges denied while it ran *)
}

val no_injections : injected

type event = {
  seq : int;  (** monotonically increasing across drops *)
  tick : int;
  pid : Types.pid;
  tid : Types.tid;
  what : string;
  phase : phase;
  detail : detail;
  injected : injected;  (** [End] events; else {!no_injections} *)
  ts_ns : float;  (** simulated time when the event was recorded *)
  span_ns : float;  (** [End] events: simulated duration; else [0.] *)
  outcome : outcome option;  (** [End] events of syscalls *)
  cpu : int option;
      (** the simulated CPU the event happened on; recorded only by SMP
          kernels, so single-CPU traces (and their JSON) are unchanged *)
}

type t

val create : ?capacity:int -> unit -> t
(** Default capacity 4096 events; older events are dropped. *)

val record :
  ?phase:phase ->
  ?detail:detail ->
  ?injected:injected ->
  ?ts_ns:float ->
  ?span_ns:float ->
  ?outcome:outcome ->
  ?cpu:int ->
  t ->
  tick:int ->
  pid:Types.pid ->
  tid:Types.tid ->
  string ->
  unit

val events : t -> event list
(** Oldest first. After overflow, exactly the last [capacity] events. *)

val total : t -> int
(** Events ever recorded, including dropped ones. *)

val find : t -> pattern:string -> event list
(** Events whose [what] contains [pattern] as a substring. *)

val to_jsonl : t -> string
(** One compact JSON object per line, oldest first. *)

val to_chrome : ?lanes:[ `Pid | `Cpu ] -> t -> Metrics.Json.t
(** Chrome [trace_event] document ([{"traceEvents": [...]}]), loadable
    in Perfetto or chrome://tracing; timestamps in microseconds of
    simulated time. With [`Pid] lanes (the default) events carry their
    real pid/tid so each process renders as its own track, and ["M"]
    metadata events name the tracks ("pid 3 (fork)", from the
    creation-style instants) and sort them in pid order. With [`Cpu]
    lanes, events render in one synthetic process whose threads are the
    simulated CPUs ("cpu 0", "cpu 1", ...) — the per-CPU timeline of an
    SMP run; events recorded without a cpu land in a "cpu ?" lane. *)
