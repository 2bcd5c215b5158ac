(* Render the blame ledger as a report table: one row per creation
   event with its sync (paid-at-creation) and deferred (paid-later)
   bills, plus the deferred COW-break counts — the paper's "fork's tax
   is paid later, by someone else" as a measured table. *)

let child_string (ev : Vmem.Blame.event) =
  match (ev.Vmem.Blame.child, ev.Vmem.Blame.tag) with
  | Some c, _ -> string_of_int c
  | None, Some tag -> tag
  | None, None -> if ev.Vmem.Blame.failed then "failed" else "-"

let table blame =
  let t =
    Metrics.Table.create
      ~align:
        [
          Metrics.Table.Right;
          Metrics.Table.Left;
          Metrics.Table.Right;
          Metrics.Table.Left;
          Metrics.Table.Right;
          Metrics.Table.Right;
          Metrics.Table.Right;
          Metrics.Table.Right;
        ]
      [
        "event";
        "style";
        "parent";
        "child";
        "sync cycles";
        "deferred cycles";
        "cow breaks";
        "frames copied";
      ]
  in
  List.iter
    (fun (ev : Vmem.Blame.event) ->
      let deferred = ev.Vmem.Blame.deferred in
      let copies = Vmem.Cost.count deferred Fault_cow_copy in
      let reuses = Vmem.Cost.count deferred Fault_cow_reuse in
      Metrics.Table.add_row t
        [
          string_of_int ev.Vmem.Blame.id;
          ev.Vmem.Blame.style;
          string_of_int ev.Vmem.Blame.parent;
          child_string ev;
          Metrics.Units.cycles (Vmem.Cost.total ev.Vmem.Blame.sync);
          Metrics.Units.cycles (Vmem.Cost.total deferred);
          string_of_int (copies + reuses);
          string_of_int copies;
        ])
    (Vmem.Blame.events blame);
  t

let to_json = Vmem.Blame.to_json
