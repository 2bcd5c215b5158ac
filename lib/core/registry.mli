(** All experiments, in paper order. *)

val all : Report.experiment list
val find : string -> Report.experiment option
(** Lookup by id or slug, case-insensitive, '-' and '_' interchangeable
    ("f1", "F1-SIM", "fig1-sim", "e3", ...). *)

val ids : string list

val measure_real_first : quick:bool -> Report.experiment list -> unit
(** Measure (and cache) the real-OS halves of the listed experiments
    that have one (E14, E17). Call it before running any experiment:
    those halves start Spawnlib.Pool workers with [Unix.fork], which
    OCaml 5 refuses once the process has spawned a domain, and the
    simulated sweeps spawn domains. *)

val slug : Report.experiment -> string
(** Filename-friendly name ("fig1_sim", "cowtax", ...): the bench
    harness writes [BENCH_<slug>.json]. *)
