(** Sliding-window statistics and rate gauges.

    A window of [width] time units is divided into [slots] buckets;
    samples land in the bucket of their timestamp, and queries merge
    every bucket still inside the window ending at the query's [now].
    Expiry is at slot granularity: a sample leaves the window somewhere
    between [width] and [width + width/slots] after it arrived.

    The caller supplies all timestamps — this module never reads a
    clock — so windows work equally over wall-clock seconds
    ({!Spawnlib.Pool}) and simulated nanoseconds, and behave
    deterministically under test. Time must be non-negative; it need
    not be monotone, but samples older than the newest slot they map to
    are simply merged into that slot. *)

type t

val create : ?slots:int -> ?hist_base:float -> ?hist_buckets:int ->
  width:float -> unit -> t
(** Defaults: 16 slots, histogram base [1e-6] with 48 log buckets
    (sub-microsecond to ~100s when samples are in seconds).
    @raise Invalid_argument if [width <= 0] or [slots < 2]. *)

val add : t -> now:float -> float -> unit
(** Record sample [v] at time [now].
    @raise Invalid_argument on negative time or sample. *)

val observations : t -> now:float -> int
val sum : t -> now:float -> float
val mean : t -> now:float -> float option
val minimum : t -> now:float -> float option
val maximum : t -> now:float -> float option

val rate : t -> now:float -> float
(** Observations per time unit over the window. *)

val quantile : t -> now:float -> float -> float option
(** [None] when the window is empty. *)

val to_json : t -> now:float -> Json.t
(** Summary (count, sum, mean, min, max, rate, p50/p95/p99). *)
