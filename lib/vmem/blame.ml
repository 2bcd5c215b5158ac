(* Cost-attribution ledger: charges each COW break, frame copy and TLB
   shootdown back to the sharing-creation event (fork, freeze, zygote
   spawn, ...) that made the page shared in the first place. See
   DESIGN.md §14 for the attribution model. *)

type kind = Sync | Deferred

type entry = { mutable cycles : float; mutable events : int }

type bucket = (string, entry) Hashtbl.t

type event = {
  id : int;
  style : string;
  parent : int;
  mutable child : int option;
  mutable failed : bool;
  mutable tag : string option;
  sync : bucket;
  deferred : bucket;
}

type t = {
  events : (int, event) Hashtbl.t;
  by_child : (int, int) Hashtbl.t;
  mutable next_id : int;
  mutable context : (int * kind) option;
  unattributed : bucket;
}

let create () =
  {
    events = Hashtbl.create 16;
    by_child = Hashtbl.create 16;
    next_id = 1;
    context = None;
    unattributed = Hashtbl.create 16;
  }

let bucket_add (b : bucket) category ~n cycles =
  match Hashtbl.find_opt b category with
  | Some e ->
    e.cycles <- e.cycles +. cycles;
    e.events <- e.events + n
  | None -> Hashtbl.add b category { cycles; events = n }

(* Observer hook: the kernel chains this after Kstat.on_cost on the one
   Cost observer slot, so every charge lands in exactly one bucket —
   the partition property the QCheck test asserts is structural. *)
let on_cost t category ~n cycles =
  match t.context with
  | None -> bucket_add t.unattributed category ~n cycles
  | Some (id, which) -> (
    match Hashtbl.find_opt t.events id with
    | None -> bucket_add t.unattributed category ~n cycles
    | Some ev ->
      bucket_add
        (match which with Sync -> ev.sync | Deferred -> ev.deferred)
        category ~n cycles)

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
      sync = Hashtbl.create 8;
      deferred = Hashtbl.create 8;
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

let with_context t ~id which f =
  let saved = t.context in
  t.context <- Some (id, which);
  Fun.protect ~finally:(fun () -> t.context <- saved) f

let events t =
  Hashtbl.fold (fun _ ev acc -> ev :: acc) t.events []
  |> List.sort (fun a b -> compare a.id b.id)

let bucket_categories (b : bucket) =
  Hashtbl.fold (fun k e acc -> (k, (e.cycles, e.events)) :: acc) b []
  |> List.sort (fun (ka, (ca, _)) (kb, (cb, _)) ->
         match Float.compare cb ca with 0 -> compare ka kb | c -> c)

let bucket_cycles (b : bucket) =
  Hashtbl.fold (fun _ e acc -> acc +. e.cycles) b 0.0

let sync_cycles ev = bucket_cycles ev.sync
let deferred_cycles ev = bucket_cycles ev.deferred

let deferred_count ev category =
  match Hashtbl.find_opt ev.deferred category with
  | Some e -> e.events
  | None -> 0

let unattributed t = bucket_categories t.unattributed

(* Per-category grand totals over every bucket (sync + deferred of every
   event, plus unattributed), sorted by category name: if blame sees
   every charge exactly once, this equals the Cost meter's own
   by-category tallies — integer-valued cost params make the float sums
   exact, so the comparison is [=], not approximate. *)
let totals t =
  let acc : bucket = Hashtbl.create 32 in
  let merge (b : bucket) =
    Hashtbl.iter (fun k (e : entry) -> bucket_add acc k ~n:e.events e.cycles) b
  in
  merge t.unattributed;
  Hashtbl.iter
    (fun _ ev ->
      merge ev.sync;
      merge ev.deferred)
    t.events;
  Hashtbl.fold (fun k e l -> (k, (e.cycles, e.events)) :: l) acc []
  |> List.sort (fun (a, _) (b, _) -> compare a b)

let bucket_to_json (b : bucket) =
  let open Metrics.Json in
  obj
    [
      ("cycles", num (bucket_cycles b));
      ( "categories",
        obj
          (List.map
             (fun (k, (c, n)) ->
               (k, obj [ ("cycles", num c); ("events", int n) ]))
             (bucket_categories b)) );
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
