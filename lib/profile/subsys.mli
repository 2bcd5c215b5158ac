(** Subsystem grouping of {!Vmem.Cost} categories.

    Maps each fine-grained cost category ("fork:pte", "fault:cow-copy",
    "tlb:shootdown", ...) to one of seven subsystem groups. The mapping is
    total and the groups partition the categories, so group sums always
    equal the headline cycle count — the invariant report breakdowns and
    flamegraph leaves rely on. *)

val group_of : string -> string
(** Group of one category. *)

val group_order : string list
(** Canonical display order:
    pt-copy, fault, pager, frame-copy, tlb, exec, other. *)

val groups_of_breakdown : (string * float) list -> (string * float) list
(** Collapse a per-category breakdown into per-group sums, in
    {!group_order}, omitting groups with no entries. *)
