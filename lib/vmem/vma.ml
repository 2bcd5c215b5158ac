type kind =
  | Anon
  | Heap
  | Stack
  | Text of { path : string }
  | Data of { path : string }
  | File of { path : string; offset : int }
  | Guard

type t = { perm : Perm.t; kind : kind; shared : bool }

let make ?(shared = false) ~perm ~kind () = { perm; kind; shared }

let crop ~old_start ~start ~stop:_ t =
  match t.kind with
  | File { path; offset } ->
    { t with kind = File { path; offset = offset + (start - old_start) } }
  | Anon | Heap | Stack | Text _ | Data _ | Guard -> t
