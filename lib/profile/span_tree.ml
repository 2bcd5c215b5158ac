(* Causal span tree: process genealogy reconstructed from the trace's
   creation instants (D_child), annotated with each pid's kstat deltas.
   Everything here is read-only over the machine, so building a tree
   never perturbs a simulated number. *)

type node = {
  pid : int;
  style : string;
  parent : int option;
  created_ns : float;
  creation_span_ns : float;
  last_ns : float;
  cycles : float;
  cost : (Vmem.Cost.cat * (float * int)) list;
  groups : (string * float) list;
  counters : (string * int) list;
  mutable children : node list;
}

type t = { roots : node list; nodes : node list; total_cycles : float }

let build machine =
  let events =
    match Ksim.Kernel.trace machine with
    | Some tr -> Ksim.Trace.events tr
    | None -> []
  in
  (* genealogy: child pid -> (style, the D_child instant announcing it) *)
  let genealogy = Hashtbl.create 16 in
  List.iter
    (fun (e : Ksim.Trace.event) ->
      match e.Ksim.Trace.detail with
      | Ksim.Trace.D_child { child; style } ->
        if not (Hashtbl.mem genealogy child) then
          Hashtbl.add genealogy child (style, e)
      | _ -> ())
    events;
  let ends =
    List.filter
      (fun (e : Ksim.Trace.event) -> e.Ksim.Trace.phase = Ksim.Trace.End)
      events
  in
  (* The D_child instant is recorded inside the creating syscall's
     handler, so that syscall's End is the creating thread's next End
     event. For vfork the span includes the parent's block until the
     child execs or exits — that IS vfork's cost to the parent, so the
     attribution is the honest one. *)
  let creation_span (c : Ksim.Trace.event) =
    let matches (e : Ksim.Trace.event) =
      e.Ksim.Trace.pid = c.Ksim.Trace.pid
      && e.Ksim.Trace.tid = c.Ksim.Trace.tid
      && e.Ksim.Trace.seq > c.Ksim.Trace.seq
    in
    match List.find_opt matches ends with
    | Some e -> e.Ksim.Trace.span_ns
    | None -> 0.0
  in
  let last_ns = Hashtbl.create 16 in
  List.iter
    (fun (e : Ksim.Trace.event) ->
      let prev =
        Option.value ~default:0.0 (Hashtbl.find_opt last_ns e.Ksim.Trace.pid)
      in
      if e.Ksim.Trace.ts_ns > prev then
        Hashtbl.replace last_ns e.Ksim.Trace.pid e.Ksim.Trace.ts_ns)
    events;
  let kstat = Ksim.Kernel.kstat machine in
  let pids =
    let tbl = Hashtbl.create 32 in
    let note pid = Hashtbl.replace tbl pid () in
    List.iter note (Ksim.Kstat.pids kstat);
    Hashtbl.iter (fun pid _ -> note pid) genealogy;
    List.iter (fun (e : Ksim.Trace.event) -> note e.Ksim.Trace.pid) events;
    Hashtbl.fold (fun pid () acc -> pid :: acc) tbl [] |> List.sort compare
  in
  let node_of pid =
    let parent, style, created_ns, creation_span_ns =
      match Hashtbl.find_opt genealogy pid with
      | Some (style, c) ->
        (Some c.Ksim.Trace.pid, style, c.Ksim.Trace.ts_ns, creation_span c)
      | None -> (None, "root", 0.0, 0.0)
    in
    let cycles, cost, counters =
      match Ksim.Kstat.pid_counters kstat pid with
      | Some c ->
        ( Vmem.Cost.total c.Ksim.Kstat.by_cost,
          Vmem.Cost.entries c.Ksim.Kstat.by_cost,
          Ksim.Kstat.snapshot c )
      | None -> (0.0, [], [])
    in
    {
      pid;
      style;
      parent;
      created_ns;
      creation_span_ns;
      last_ns = Option.value ~default:0.0 (Hashtbl.find_opt last_ns pid);
      cycles;
      cost;
      groups =
        Vmem.Cost.groups (List.map (fun (cat, (cyc, _)) -> (cat, cyc)) cost);
      counters;
      children = [];
    }
  in
  let nodes = List.map node_of pids in
  let by_pid = Hashtbl.create 32 in
  List.iter (fun n -> Hashtbl.replace by_pid n.pid n) nodes;
  List.iter
    (fun n ->
      match n.parent with
      | Some p -> (
        match Hashtbl.find_opt by_pid p with
        | Some pn -> pn.children <- pn.children @ [ n ]
        | None -> ())
      | None -> ())
    nodes;
  let roots =
    List.filter
      (fun n ->
        match n.parent with
        | None -> true
        | Some p -> not (Hashtbl.mem by_pid p))
      nodes
  in
  {
    roots;
    nodes;
    total_cycles = Vmem.Cost.total (Ksim.Kernel.cost machine);
  }
