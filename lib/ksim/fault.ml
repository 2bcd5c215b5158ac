type site = Frame_alloc | Commit | Syscall | Pager_fetch

type trigger =
  | Frame_alloc_nth of int
  | Commit_nth of int
  | Syscall_nth of { kind : string; nth : int; errno : Errno.t }
  | Frame_alloc_random of float
  | Commit_random of float
  | Syscall_random of { kind : string option; p : float; errno : Errno.t }
  | Pager_fetch_nth of int
  | Pager_fetch_random of float

type spec = { seed : int; triggers : trigger list }

let injectable = Errno.[ ENOMEM; EAGAIN; EINTR ]

let validate spec =
  let bad fmt = Printf.ksprintf (fun s -> Error s) fmt in
  let check_errno e =
    if List.mem e injectable then Ok ()
    else bad "Fault: errno %s is not injectable" (Errno.to_string e)
  in
  let check_p p =
    if p >= 0.0 && p <= 1.0 then Ok ()
    else bad "Fault: probability %g outside [0, 1]" p
  in
  let check_nth n =
    if n >= 1 then Ok () else bad "Fault: occurrence number %d < 1" n
  in
  List.fold_left
    (fun acc tr ->
      match acc with
      | Error _ -> acc
      | Ok () -> (
        match tr with
        | Frame_alloc_nth n | Commit_nth n | Pager_fetch_nth n -> check_nth n
        | Syscall_nth { nth; errno; _ } -> (
          match check_nth nth with Error _ as e -> e | Ok () -> check_errno errno)
        | Frame_alloc_random p | Commit_random p | Pager_fetch_random p ->
          check_p p
        | Syscall_random { p; errno; _ } -> (
          match check_p p with Error _ as e -> e | Ok () -> check_errno errno)))
    (Ok ()) spec.triggers

type t = {
  spec : spec;
  rng : Prng.Splitmix.t;
  mutable alloc_seen : int;
  mutable commit_seen : int;
  mutable syscall_seen : int;  (** fallible dispatches, any kind *)
  per_kind : (string, int) Hashtbl.t;  (** fallible dispatches by kind *)
  mutable pager_seen : int;
  mutable alloc_inj : int;
  mutable commit_inj : int;
  mutable syscall_inj : int;
  mutable pager_inj : int;
  (* random triggers pre-split by site so the single-stream draws at one
     site don't depend on how often the other sites fire *)
  alloc_random : float list;
  commit_random : float list;
  syscall_random : (string option * float * Errno.t) list;
  pager_random : float list;
  alloc_nth : int list;
  commit_nth : int list;
  syscall_nth : (string * int * Errno.t) list;
  pager_nth : int list;
}

let spec t = t.spec

let create spec =
  (match validate spec with Ok () -> () | Error m -> invalid_arg m);
  let alloc_random = ref [] and commit_random = ref [] in
  let syscall_random = ref [] and pager_random = ref [] in
  let alloc_nth = ref [] and commit_nth = ref [] in
  let syscall_nth = ref [] and pager_nth = ref [] in
  List.iter
    (function
      | Frame_alloc_nth n -> alloc_nth := n :: !alloc_nth
      | Commit_nth n -> commit_nth := n :: !commit_nth
      | Syscall_nth { kind; nth; errno } ->
        syscall_nth := (kind, nth, errno) :: !syscall_nth
      | Frame_alloc_random p -> alloc_random := p :: !alloc_random
      | Commit_random p -> commit_random := p :: !commit_random
      | Syscall_random { kind; p; errno } ->
        syscall_random := (kind, p, errno) :: !syscall_random
      | Pager_fetch_nth n -> pager_nth := n :: !pager_nth
      | Pager_fetch_random p -> pager_random := p :: !pager_random)
    spec.triggers;
  {
    spec;
    rng = Prng.Splitmix.create ~seed:spec.seed;
    alloc_seen = 0;
    commit_seen = 0;
    syscall_seen = 0;
    per_kind = Hashtbl.create 8;
    pager_seen = 0;
    alloc_inj = 0;
    commit_inj = 0;
    syscall_inj = 0;
    pager_inj = 0;
    alloc_random = !alloc_random;
    commit_random = !commit_random;
    syscall_random = !syscall_random;
    pager_random = !pager_random;
    alloc_nth = !alloc_nth;
    commit_nth = !commit_nth;
    syscall_nth = !syscall_nth;
    pager_nth = !pager_nth;
  }

(* Each random trigger consumes exactly one draw per occurrence whether
   or not it fires, so a schedule's injection points are a pure function
   of (seed, occurrence histories) — adding a trigger never shifts the
   draws of the ones already there (list order is spec order). *)
let draw t p = p > 0.0 && Prng.Splitmix.float t.rng < p

let on_frame_alloc t =
  t.alloc_seen <- t.alloc_seen + 1;
  let nth_hit = List.mem t.alloc_seen t.alloc_nth in
  let rand_hit =
    List.fold_left (fun hit p -> draw t p || hit) false t.alloc_random
  in
  if nth_hit || rand_hit then begin
    t.alloc_inj <- t.alloc_inj + 1;
    true
  end
  else false

let on_commit t =
  t.commit_seen <- t.commit_seen + 1;
  let nth_hit = List.mem t.commit_seen t.commit_nth in
  let rand_hit =
    List.fold_left (fun hit p -> draw t p || hit) false t.commit_random
  in
  if nth_hit || rand_hit then begin
    t.commit_inj <- t.commit_inj + 1;
    true
  end
  else false

let on_pager_fetch t =
  t.pager_seen <- t.pager_seen + 1;
  let nth_hit = List.mem t.pager_seen t.pager_nth in
  let rand_hit =
    List.fold_left (fun hit p -> draw t p || hit) false t.pager_random
  in
  if nth_hit || rand_hit then begin
    t.pager_inj <- t.pager_inj + 1;
    true
  end
  else false

let on_syscall t ~kind =
  t.syscall_seen <- t.syscall_seen + 1;
  let k = (match Hashtbl.find_opt t.per_kind kind with Some n -> n | None -> 0) + 1 in
  Hashtbl.replace t.per_kind kind k;
  let nth_hit =
    List.fold_left
      (fun acc (kind', nth, errno) ->
        match acc with
        | Some _ -> acc
        | None -> if kind' = kind && nth = k then Some errno else None)
      None t.syscall_nth
  in
  let rand_hit =
    List.fold_left
      (fun acc (kind', p, errno) ->
        let applies = match kind' with None -> true | Some k' -> k' = kind in
        if applies && draw t p then match acc with Some _ -> acc | None -> Some errno
        else acc)
      None t.syscall_random
  in
  match (nth_hit, rand_hit) with
  | None, None -> None
  | (Some _ as e), _ | None, (Some _ as e) ->
    t.syscall_inj <- t.syscall_inj + 1;
    e

let injected t = function
  | Frame_alloc -> t.alloc_inj
  | Commit -> t.commit_inj
  | Syscall -> t.syscall_inj
  | Pager_fetch -> t.pager_inj

let total_injected t =
  t.alloc_inj + t.commit_inj + t.syscall_inj + t.pager_inj

let seen t = function
  | Frame_alloc -> t.alloc_seen
  | Commit -> t.commit_seen
  | Syscall -> t.syscall_seen
  | Pager_fetch -> t.pager_seen
