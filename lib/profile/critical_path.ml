(* Critical-path report: the creation chain that bounds end-to-end
   simulated time. Starting from the root whose subtree finishes last,
   descend at each node into the child whose subtree holds the latest
   event, until the node itself is what finishes last. The hops are the
   processes (and the creations between them) that an end-to-end
   speedup must shorten. *)

type hop = {
  pid : int;
  style : string;
  created_ns : float;
  creation_span_ns : float;
  last_ns : float;
  cycles : float;
}

let hop_of (n : Span_tree.node) =
  {
    pid = n.pid;
    style = n.style;
    created_ns = n.created_ns;
    creation_span_ns = n.creation_span_ns;
    last_ns = n.last_ns;
    cycles = n.cycles;
  }

let rec subtree_last (n : Span_tree.node) =
  List.fold_left
    (fun acc c -> Float.max acc (subtree_last c))
    n.last_ns n.children

let compute (t : Span_tree.t) =
  match t.roots with
  | [] -> []
  | roots ->
    (* ties break toward the lowest pid: children are in ascending-pid
       order and [>] keeps the first maximum, so the path is
       deterministic *)
    let best =
      List.fold_left
        (fun acc r ->
          match acc with
          | None -> Some r
          | Some b -> if subtree_last r > subtree_last b then Some r else acc)
        None roots
    in
    let rec walk (n : Span_tree.node) =
      let deeper =
        List.fold_left
          (fun acc (c : Span_tree.node) ->
            let m = subtree_last c in
            match acc with
            | Some (_, bm) when bm >= m -> acc
            | _ -> if m > n.last_ns then Some (c, m) else acc)
          None n.children
      in
      match deeper with
      | Some (c, _) -> hop_of n :: walk c
      | None -> [ hop_of n ]
    in
    (match best with None -> [] | Some r -> walk r)

let render (t : Span_tree.t) =
  let hops = compute t in
  let table =
    Metrics.Table.create
      ~align:
        [
          Metrics.Table.Left;
          Metrics.Table.Left;
          Metrics.Table.Right;
          Metrics.Table.Right;
          Metrics.Table.Right;
          Metrics.Table.Right;
        ]
      [ "pid"; "style"; "created"; "creation span"; "last event"; "cycles" ]
  in
  List.iter
    (fun h ->
      Metrics.Table.add_row table
        [
          string_of_int h.pid;
          h.style;
          Metrics.Units.ns h.created_ns;
          Metrics.Units.ns h.creation_span_ns;
          Metrics.Units.ns h.last_ns;
          Metrics.Units.cycles h.cycles;
        ])
    hops;
  let end_ns =
    match List.rev hops with [] -> 0.0 | last :: _ -> last.last_ns
  in
  Printf.sprintf "critical path: %d hop(s), ends at %s\n%s"
    (List.length hops)
    (Metrics.Units.ns end_ns)
    (Metrics.Table.render table)
