(** Wall-clock sampling for the real-OS benches.

    Process creation costs hundreds of microseconds and up, so
    [Unix.gettimeofday]'s microsecond granularity is ample; each sample
    times one operation, and the harness reports distribution statistics
    over many samples. *)

val sample : ?warmup:int -> n:int -> (unit -> unit) -> float array
(** [sample ~n f] runs [f] [warmup] times (default 3) untimed, then [n]
    times, returning per-run nanoseconds.
    @raise Invalid_argument if [n <= 0]. *)
