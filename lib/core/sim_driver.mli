(** Deterministic measurements on the ksim simulator.

    Costs are isolated differentially: a scenario is run twice from
    identical initial state — once with and once without the operation
    under test — and the cycle-meter difference is the operation's cost.
    Runs are bit-for-bit deterministic, so one pair of runs per data
    point suffices (no sampling noise). *)

type measurement = {
  cycles : float;
  ns : float;  (** cycles through {!Vmem.Cost.cycles_to_ns} *)
  breakdown : (Vmem.Cost.cat * float) list;
      (** per-category cycles, {!Vmem.Cost.entries} order *)
  groups : (string * float) list;
      (** [breakdown] folded by {!Vmem.Cost.groups}; the groups
          partition the categories, so they sum to [cycles] exactly *)
  counters : (string * int) list;
      (** {!Ksim.Kstat} counter activity (snapshot names); differential
          measurements report per-operation deltas, zeros dropped *)
  console : string;
  outcome : Ksim.Kernel.outcome;
}

val run_scenario :
  ?config:Ksim.Kernel.config ->
  ?programs:Ksim.Program.t list ->
  (unit -> unit) ->
  measurement
(** Boot a kernel whose init runs the body (with [/bin/true] always
    registered), run to quiescence, and report whole-run totals. *)

val boot_scenario :
  ?config:Ksim.Kernel.config ->
  ?programs:Ksim.Program.t list ->
  (unit -> unit) ->
  Ksim.Kernel.t * Ksim.Kernel.outcome
(** {!run_scenario} without the summarising: hands back the quiesced
    machine for callers that harvest state the measurement record
    doesn't carry — trace spans (E13's latency percentiles),
    fault-injection counts, per-pid counters. *)

val end_spans :
  Ksim.Kernel.t -> what:string -> pid:(Ksim.Types.pid -> bool) ->
  Ksim.Trace.event list
(** The End events of syscall [what] issued by pids that [pid] accepts,
    oldest first: how the sweeps harvest per-syscall latencies.
    @raise Invalid_argument on an untraced machine. *)

val ok_ns : Ksim.Trace.event list -> float list
(** The simulated span latencies of the successful ones, in order. *)

val config_for : heap_mib:int -> Ksim.Kernel.config
(** Overcommit, ASLR off (differential runs need identical prefixes),
    physical memory sized to hold the footprint twice over. *)

val with_footprint : heap_mib:int -> vmas:int -> (unit -> unit)
(** A program fragment that maps the footprint across [vmas] regions and
    write-touches every page. Runs inside a simulated program. *)

val creation_cost :
  ?vmas:int -> strategy:Strategy.t -> heap_mib:int -> unit -> measurement
(** Differential cost of one create+wait of [/bin/true] (or an
    immediately-exiting child for [Fork_only]/[Fork_eager]) from a parent
    with the given touched footprint. *)
