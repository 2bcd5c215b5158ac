(** Domain-parallel map for experiment harnesses.

    Sweep points in the simulated experiments are independent — each one
    boots its own [Ksim.Kernel], frame allocator and cost meter — so the
    harness can fan them out across domains. Determinism is preserved by
    construction: results come back in input order, and every simulated
    number is computed inside its own isolated kernel, so the output is
    identical whatever the worker count (there is a regression test for
    this). *)

val jobs : unit -> int
(** The worker count the pool uses by default: {!set_jobs}'s value when
    one has been set (the bench harness's [--jobs N] flag), otherwise
    the [FORKROAD_JOBS] environment variable: a positive integer is used
    as-is but clamped to 4x [Domain.recommended_domain_count ()] (more
    workers than that only adds contention), [0] explicitly selects
    sequential execution, and anything invalid (negative, non-numeric)
    falls back to the core count. Every non-identity interpretation is
    announced once on stderr so a typo'd value cannot silently change
    the worker count. *)

val set_jobs : int -> unit
(** Programmatic override taking precedence over [FORKROAD_JOBS]; the
    value is interpreted exactly like the environment variable ([0] =
    sequential, clamped to 4x cores).
    @raise Invalid_argument on a negative count. *)

val map : ?jobs:int -> ('a -> 'b) -> 'a list -> 'b list
(** [map f xs] applies [f] to every element and returns the results in
    input order. With [jobs <= 1] (or at most one element) it is plain
    [List.map] in the calling domain — no domains are spawned. Otherwise
    [min (jobs - 1) (length xs - 1)] worker domains are spawned and the
    calling domain also works; elements are claimed from an atomic
    counter. Calls do not nest: [f] must not call [map] itself. If any
    applications raise, the exception of the earliest-indexed failing
    element is re-raised after all domains have been joined. [jobs]
    defaults to {!jobs}[ ()]. *)
