(** Causal span tree: process genealogy + per-process cost attribution.

    Rebuilds the fork/vfork/spawn/zygote/builder genealogy from the
    machine's trace ([D_child] creation instants), and annotates each
    node with that pid's {!Ksim.Kstat} counters, per-category cycle
    spend and subsystem-group totals. The tree is the common input of
    the folded-stack flamegraph ({!Folded}) and the critical-path
    report ({!Critical_path}). *)

type node = {
  pid : int;
  style : string;
      (** creation style ("fork", "vfork", "spawn", "zygote",
          "builder"), or "root" for processes with no recorded creator *)
  parent : int option;
  created_ns : float;  (** simulated timestamp of the creation instant *)
  creation_span_ns : float;
      (** span of the creating syscall (for vfork this includes the
          parent's block until exec/exit — vfork's real cost to the
          parent); 0 when unknown *)
  last_ns : float;  (** timestamp of this pid's last trace event *)
  cycles : float;  (** simulated cycles attributed to this pid *)
  cost : (Vmem.Cost.cat * (float * int)) list;
      (** per-category (cycles, events), {!Vmem.Cost.entries} order *)
  groups : (string * float) list;
      (** per-subsystem-group cycles, {!Vmem.Cost.groups} *)
  counters : (string * int) list;  (** {!Ksim.Kstat.snapshot} *)
  mutable children : node list;  (** creation order (ascending pid) *)
}

type t = {
  roots : node list;
  nodes : node list;  (** every node, ascending pid *)
  total_cycles : float;  (** machine-wide cycle total *)
}

val build : Ksim.Kernel.t -> t
(** Read-only over the machine; never perturbs a simulated number.
    Without a trace the tree is flat: every pid with kstat counters
    becomes a root. *)
