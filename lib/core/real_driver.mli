(** Wall-clock measurements on the real OS.

    Each sample is one create+wait of [/bin/true] (or an
    immediately-exiting fork child for [Fork_only]) performed by the
    calling process, whose memory footprint the caller controls with
    {!Workload.Footprint}. This is the measured half of the Figure-1
    reproduction. *)

val creation_once : Strategy.t -> unit
(** One create+wait. @raise Failure if the strategy is unsupported on
    the real OS ({!Strategy.supported_real}) or creation fails. *)

val creation_stats : strategy:Strategy.t -> samples:int -> Metrics.Stats.t
(** Latency distribution (nanoseconds) over [samples] runs, after a
    short warmup. *)
