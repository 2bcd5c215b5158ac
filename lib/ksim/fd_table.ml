type entry = { ofd : Ofd.t; mutable cloexec : bool }

(* [slots] covers fds [0, length) and grows on demand, doubling toward
   [limit] as Linux's [expand_files] does; every fd at or above [hi],
   one past the highest open fd, is free. So a table costs what its
   process opened, not [max_fds]. [next_fd] is Linux's hint of the same
   name: every slot below it is taken, so the search for the lowest
   free slot starts there. *)
type t = {
  mutable slots : entry option array;
  limit : int;
  mutable hi : int;
  mutable next_fd : int;
}

let create ?(max_fds = 256) () =
  if max_fds <= 0 then invalid_arg "Fd_table.create: max_fds <= 0";
  { slots = [||]; limit = max_fds; hi = 0; next_fd = 0 }

(* The array length that holds fds [0, n): 8 slots, doubled until they
   do, capped at the limit. *)
let capacity t n =
  let rec up c = if c >= n then min c t.limit else up (2 * c) in
  if n = 0 then 0 else up 8

let install t fd e =
  let len = Array.length t.slots in
  if fd >= len then begin
    let grown = Array.make (capacity t (fd + 1)) None in
    Array.blit t.slots 0 grown 0 len;
    t.slots <- grown
  end;
  t.slots.(fd) <- Some e;
  if fd >= t.hi then t.hi <- fd + 1

let free t fd =
  t.slots.(fd) <- None;
  if fd < t.next_fd then t.next_fd <- fd;
  if fd = t.hi - 1 then begin
    let rec top h =
      if h = 0 then 0
      else match t.slots.(h - 1) with None -> top (h - 1) | Some _ -> h
    in
    t.hi <- top fd
  end

let count t =
  let n = ref 0 in
  for fd = 0 to t.hi - 1 do
    match t.slots.(fd) with None -> () | Some _ -> incr n
  done;
  !n

let alloc t ?(at_least = 0) ~cloexec ofd =
  if at_least < 0 || at_least >= t.limit then Error Errno.EINVAL
  else begin
    let rec find fd =
      if fd >= t.hi then fd
      else match t.slots.(fd) with None -> fd | Some _ -> find (fd + 1)
    in
    let fd = find (max at_least t.next_fd) in
    if fd >= t.limit then Error Errno.EMFILE
    else begin
      install t fd { ofd; cloexec };
      if at_least <= t.next_fd then t.next_fd <- fd + 1;
      Ok fd
    end
  end

let entry t fd =
  if fd < 0 || fd >= t.hi then Error Errno.EBADF
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
      (if dst < t.hi then
         match t.slots.(dst) with Some old -> Ofd.close old.ofd | None -> ());
      Ofd.incref e.ofd;
      install t dst { ofd = e.ofd; cloexec = false };
      Ok dst
    end

let clone t =
  let slots = Array.make (capacity t t.hi) None in
  for fd = 0 to t.hi - 1 do
    match t.slots.(fd) with
    | None -> ()
    | Some e ->
      Ofd.incref e.ofd;
      slots.(fd) <- Some { ofd = e.ofd; cloexec = e.cloexec }
  done;
  { slots; limit = t.limit; hi = t.hi; next_fd = t.next_fd }

(* A [for] reads its bound once: [free] may lower [hi] mid-loop, but it
   never shrinks [slots], so every fd below the starting [hi] stays a
   valid index. *)
let close_cloexec t =
  for fd = 0 to t.hi - 1 do
    match t.slots.(fd) with
    | Some e when e.cloexec ->
      Ofd.close e.ofd;
      free t fd
    | Some _ | None -> ()
  done

let close_all t =
  for fd = 0 to t.hi - 1 do
    match t.slots.(fd) with
    | Some e ->
      Ofd.close e.ofd;
      free t fd
    | None -> ()
  done

let iter t f =
  for fd = 0 to t.hi - 1 do
    match t.slots.(fd) with
    | Some e -> f fd e.ofd ~cloexec:e.cloexec
    | None -> ()
  done
