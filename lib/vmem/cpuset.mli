(** Immutable sets of simulated CPU ids (0..63), packed in an [Int64].

    Used for the per-address-space "which CPUs may cache a mapping of
    this address space" mask that drives targeted TLB-shootdown IPI
    accounting in the SMP kernel model. *)

type t

val max_cpus : int
(** 64 — the mask width and the SMP model's CPU-count ceiling. *)

val empty : t

val singleton : int -> t
(** Raises [Invalid_argument] outside 0..[max_cpus]-1 (as do all
    functions below taking a cpu id). *)

val add : int -> t -> t
val remove : int -> t -> t

val count : t -> int
(** Population count — the number of IPIs a targeted shootdown of this
    set costs. *)

val to_list : t -> int list
