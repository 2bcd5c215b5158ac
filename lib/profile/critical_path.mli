(** Critical-path report over a {!Span_tree}.

    The chain of processes from a root to the node whose last event
    bounds end-to-end simulated time, descending at each step into the
    subtree that finishes last (ties to the lowest pid, so the path is
    deterministic). Each hop carries the creation span that linked it to
    its parent — the serial chain an end-to-end speedup must shorten. *)

type hop = {
  pid : int;
  style : string;
  created_ns : float;
  creation_span_ns : float;
  last_ns : float;
  cycles : float;
}

val compute : Span_tree.t -> hop list
(** Root first; empty for an empty tree. *)

val render : Span_tree.t -> string
(** Human-readable table with a one-line summary header. *)
