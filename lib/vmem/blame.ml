(* Cost-attribution ledger: charges each COW break, frame copy and TLB
   shootdown back to the sharing-creation event (fork, freeze, zygote
   spawn, ...) that made the page shared in the first place. See
   DESIGN.md §14 for the attribution model. *)

type kind = Sync | Deferred

type event = {
  id : int;
  style : string;
  parent : int;
  mutable child : int option;
  mutable failed : bool;
  mutable tag : string option;
  sync : Cost.t;
  deferred : Cost.t;
}

type t = {
  events : (int, event) Hashtbl.t;
  by_child : (int, int) Hashtbl.t;
  mutable next_id : int;
  unattributed : Cost.t;
  mutable target : Cost.t;  (* the bucket the active context picked *)
}

let create () =
  let unattributed = Cost.create () in
  {
    events = Hashtbl.create 16;
    by_child = Hashtbl.create 16;
    next_id = 1;
    unattributed;
    target = unattributed;
  }

(* Observer hook: the kernel chains this after Kstat.on_cost on the one
   Cost observer slot, so every charge lands in exactly one bucket —
   the partition property the QCheck test asserts is structural. *)
let on_cost t cat ~n cycles = Cost.add t.target cat ~n cycles

let new_event t ~style ~parent =
  let id = t.next_id in
  t.next_id <- id + 1;
  Hashtbl.replace t.events id
    {
      id;
      style;
      parent;
      child = None;
      failed = false;
      tag = None;
      sync = Cost.create ();
      deferred = Cost.create ();
    };
  id

let find t id = Hashtbl.find_opt t.events id

let set_child t id ~child =
  match find t id with
  | None -> ()
  | Some ev ->
    ev.child <- Some child;
    Hashtbl.replace t.by_child child id

let set_tag t id tag =
  match find t id with None -> () | Some ev -> ev.tag <- Some tag

let mark_failed t id =
  match find t id with None -> () | Some ev -> ev.failed <- true

let event_of_child t pid = Hashtbl.find_opt t.by_child pid

(* Entered once per pager request and once per batched-touch flush, so
   the restore is a plain match: [Fun.protect] would allocate its
   closures on every entry. *)
let with_context t ~id which f =
  let saved = t.target in
  (t.target <-
     match (find t id, which) with
     | None, _ -> t.unattributed
     | Some ev, Sync -> ev.sync
     | Some ev, Deferred -> ev.deferred);
  match f () with
  | v ->
    t.target <- saved;
    v
  | exception e ->
    let bt = Printexc.get_raw_backtrace () in
    t.target <- saved;
    Printexc.raise_with_backtrace e bt

let events t =
  Hashtbl.fold (fun _ ev acc -> ev :: acc) t.events []
  |> List.sort (fun a b -> compare a.id b.id)

(* Per-category grand totals over every bucket (sync + deferred of every
   event, plus unattributed): if blame sees every charge exactly once,
   this equals the Cost meter's own per-category tallies — integer-valued
   cost params make the float sums exact, so the comparison is [=], not
   approximate. *)
let totals t =
  let acc = Cost.create () in
  let merge b =
    List.iter (fun (c, (cycles, n)) -> Cost.add acc c ~n cycles) (Cost.entries b)
  in
  merge t.unattributed;
  Hashtbl.iter
    (fun _ ev ->
      merge ev.sync;
      merge ev.deferred)
    t.events;
  acc

let bucket_to_json b =
  let open Metrics.Json in
  obj
    [
      ("cycles", num (Cost.total b));
      ( "categories",
        obj
          (List.map
             (fun (c, (cycles, n)) ->
               ( (Cost.info c).name,
                 obj [ ("cycles", num cycles); ("events", int n) ] ))
             (Cost.entries b)) );
    ]

let event_to_json ev =
  let open Metrics.Json in
  obj
    [
      ("id", int ev.id);
      ("style", str ev.style);
      ("parent", int ev.parent);
      ("child", match ev.child with Some c -> int c | None -> Null);
      ("failed", bool ev.failed);
      ("tag", match ev.tag with Some s -> str s | None -> Null);
      ("sync", bucket_to_json ev.sync);
      ("deferred", bucket_to_json ev.deferred);
    ]

let to_json t =
  let open Metrics.Json in
  obj
    [
      ("events", arr (List.map event_to_json (events t)));
      ("unattributed", bucket_to_json t.unattributed);
    ]
