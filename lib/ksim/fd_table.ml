type entry = { ofd : Ofd.t; mutable cloexec : bool }
(* [next_fd] is Linux's hint of the same name: every slot below it is
   taken, so the search for the lowest free slot starts there. *)
type t = { slots : entry option array; limit : int; mutable next_fd : int }

let create ?(max_fds = 256) () =
  if max_fds <= 0 then invalid_arg "Fd_table.create: max_fds <= 0";
  { slots = Array.make max_fds None; limit = max_fds; next_fd = 0 }

let free t fd =
  t.slots.(fd) <- None;
  if fd < t.next_fd then t.next_fd <- fd

let count t =
  Array.fold_left (fun n slot -> if slot = None then n else n + 1) 0 t.slots

let alloc t ?(at_least = 0) ~cloexec ofd =
  if at_least < 0 || at_least >= t.limit then Error Errno.EINVAL
  else begin
    let rec find fd =
      if fd >= t.limit then Error Errno.EMFILE
      else if t.slots.(fd) = None then begin
        t.slots.(fd) <- Some { ofd; cloexec };
        Ok fd
      end
      else find (fd + 1)
    in
    let r = find (max at_least t.next_fd) in
    (match r with
    | Ok fd when at_least <= t.next_fd -> t.next_fd <- fd + 1
    | Ok _ | Error _ -> ());
    r
  end

let entry t fd =
  if fd < 0 || fd >= t.limit then Error Errno.EBADF
  else match t.slots.(fd) with None -> Error Errno.EBADF | Some e -> Ok e

let get t fd = Result.map (fun e -> e.ofd) (entry t fd)
let cloexec t fd = Result.map (fun e -> e.cloexec) (entry t fd)

let set_cloexec t fd v =
  Result.map (fun e -> e.cloexec <- v) (entry t fd)

let close t fd =
  match entry t fd with
  | Error _ as e -> e
  | Ok e ->
    Ofd.close e.ofd;
    free t fd;
    Ok ()

let dup t fd =
  match entry t fd with
  | Error e -> Error e
  | Ok e ->
    Ofd.incref e.ofd;
    (match alloc t ~cloexec:false e.ofd with
    | Ok _ as r -> r
    | Error _ as r ->
      Ofd.close e.ofd;
      r)

let dup2 t ~src ~dst =
  match entry t src with
  | Error e -> Error e
  | Ok e ->
    if dst < 0 || dst >= t.limit then Error Errno.EBADF
    else if src = dst then Ok dst
    else begin
      (match t.slots.(dst) with
      | Some old -> Ofd.close old.ofd
      | None -> ());
      Ofd.incref e.ofd;
      t.slots.(dst) <- Some { ofd = e.ofd; cloexec = false };
      Ok dst
    end

let clone t =
  let fresh = create ~max_fds:t.limit () in
  fresh.next_fd <- t.next_fd;
  Array.iteri
    (fun fd slot ->
      match slot with
      | None -> ()
      | Some e ->
        Ofd.incref e.ofd;
        fresh.slots.(fd) <- Some { ofd = e.ofd; cloexec = e.cloexec })
    t.slots;
  fresh

let close_cloexec t =
  Array.iteri
    (fun fd slot ->
      match slot with
      | Some e when e.cloexec ->
        Ofd.close e.ofd;
        free t fd
      | Some _ | None -> ())
    t.slots

let close_all t =
  Array.iteri
    (fun fd slot ->
      match slot with
      | Some e ->
        Ofd.close e.ofd;
        free t fd
      | None -> ())
    t.slots

let iter t f =
  Array.iteri
    (fun fd slot ->
      match slot with
      | Some e -> f fd e.ofd ~cloexec:e.cloexec
      | None -> ())
    t.slots
