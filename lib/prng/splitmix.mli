(** Deterministic splitmix64 PRNG.

    Every randomized piece of the simulator and workload generators draws
    from an explicitly-seeded {!t}, so experiments are reproducible
    bit-for-bit; [Stdlib.Random] is never used in this repository. *)

type t

val create : seed:int -> t

val next : t -> int
(** Next raw draw, uniform over non-negative OCaml ints (62 bits). *)

val int : t -> bound:int -> int
(** Uniform in [[0, bound)]. @raise Invalid_argument if [bound <= 0]. *)

val float : t -> float
(** Uniform in [[0, 1)]. *)

val split : t -> t
(** An independent generator derived from this one's stream. *)

val shuffle : t -> 'a array -> unit
(** In-place Fisher-Yates. *)
