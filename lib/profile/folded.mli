(** Folded-stack flamegraph export (flamegraph.pl / speedscope format).

    Each output line is [path;group count]: the semicolon-joined process
    ancestry (frames are [style:pid]), a subsystem-group leaf frame, and
    that pid's integral cycle spend in the group. Deterministic: nodes
    in ascending-pid DFS order, groups in {!Vmem.Cost.group_order}. *)

val render : Span_tree.t -> string
(** Empty groups are omitted; an idle tree renders to [""]. *)
