type state = Unlocked | Locked_by of Types.tid
type t = { id : int; mutable state : state; waiters : Waitq.t }
type table = { mutable next_id : int; mutexes : (int, t) Hashtbl.t }

let create_table () = { next_id = 0; mutexes = Hashtbl.create 8 }
let make id state = { id; state; waiters = Waitq.create ~exclusive:true }

let create table =
  let m = make table.next_id Unlocked in
  table.next_id <- table.next_id + 1;
  Hashtbl.add table.mutexes m.id m;
  m

let find table id = Hashtbl.find_opt table.mutexes id

(* unlock and reinit both free the mutex: wake one parked locker *)
let unlock m =
  m.state <- Unlocked;
  Waitq.kick m.waiters

let clone_table table =
  let fresh = { next_id = table.next_id; mutexes = Hashtbl.create 8 } in
  Hashtbl.iter (fun id m -> Hashtbl.add fresh.mutexes id (make id m.state)) table.mutexes;
  fresh

let held_by_missing_thread table ~live_tids =
  Hashtbl.fold
    (fun _ m acc ->
      match m.state with
      | Locked_by tid when not (List.mem tid live_tids) -> m :: acc
      | Locked_by _ | Unlocked -> acc)
    table.mutexes []
