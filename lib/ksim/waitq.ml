type payload = ..

type waiter = {
  seq : int;  (* park order *)
  machine : machine;
  payload : payload;
  deadline : int;  (* [max_int] when none *)
  mutable links : link list;
  mutable due : int;  (* the pass it is scheduled for; -1 when none *)
  mutable left : bool;
}

and link =
  | Nil
  | Link of { w : waiter; q : t; mutable prev : link; mutable next : link }

and t = { exclusive : bool; mutable head : link; mutable tail : link }

(* One machine's pass state. [pos] is the seq of the waiter being
   visited: [-1] at the start of a pass, [max_int] between passes, so a
   waiter is due in the running pass exactly when its seq is above
   [pos]. *)
and machine = {
  mutable last_seq : int;
  mutable pass : int;  (* the running pass, or the last one run *)
  mutable pos : int;
  scheduled : heap;  (* by (due, seq) *)
  timed : heap;  (* waiters with a deadline, by (deadline, seq); a waiter
                    that left stays until it reaches the top *)
  mutable parked : int;
  all : t;  (* every parked waiter, in park order *)
}

(* A binary min-heap of waiters. *)
and heap = {
  mutable a : waiter array;
  mutable n : int;
  before : waiter -> waiter -> bool;
}

let heap before = { a = [||]; n = 0; before }

let swap h i j =
  let x = h.a.(i) in
  h.a.(i) <- h.a.(j);
  h.a.(j) <- x

let push h w =
  if h.n = Array.length h.a then begin
    let a = Array.make (max 16 (2 * h.n)) w in
    Array.blit h.a 0 a 0 h.n;
    h.a <- a
  end;
  h.a.(h.n) <- w;
  let rec up i =
    let parent = (i - 1) / 2 in
    if i > 0 && h.before h.a.(i) h.a.(parent) then begin
      swap h i parent;
      up parent
    end
  in
  up h.n;
  h.n <- h.n + 1

let top h = h.a.(0)

let pop h =
  let w = h.a.(0) in
  h.n <- h.n - 1;
  h.a.(0) <- h.a.(h.n);
  let rec down i =
    let l = (2 * i) + 1 in
    let r = l + 1 in
    let m = if l < h.n && h.before h.a.(l) h.a.(i) then l else i in
    let m = if r < h.n && h.before h.a.(r) h.a.(m) then r else m in
    if m <> i then begin
      swap h i m;
      down m
    end
  in
  down 0;
  w

let create ~exclusive = { exclusive; head = Nil; tail = Nil }

let create_machine () =
  {
    last_seq = 0;
    pass = 0;
    pos = max_int;
    scheduled =
      heap (fun a b -> a.due < b.due || (a.due = b.due && a.seq < b.seq));
    timed =
      heap (fun a b ->
          a.deadline < b.deadline || (a.deadline = b.deadline && a.seq < b.seq));
    parked = 0;
    all = create ~exclusive:false;
  }

let payload w = w.payload
let parked m = m.parked

(* Put [w] in the running pass if that pass has not reached it yet, and
   in the next one otherwise. *)
let schedule w =
  let m = w.machine in
  let target = if w.seq > m.pos then m.pass else m.pass + 1 in
  if w.due <> target then begin
    w.due <- target;
    push m.scheduled w
  end

let wake = schedule

let kick q =
  match q.head with
  | Nil -> ()
  | Link h when q.exclusive ->
    (* wake one: the oldest waiter, and, if a running pass is already
       past it, also the oldest one that pass has still to reach — the
       one a scan in park order would try next *)
    schedule h.w;
    let m = h.w.machine in
    if m.pos < max_int && h.w.seq <= m.pos then
      let rec first = function
        | Nil -> ()
        | Link l -> if l.w.seq > m.pos then schedule l.w else first l.next
      in
      first h.next
  | Link _ ->
    let rec all = function
      | Nil -> ()
      | Link l ->
        schedule l.w;
        all l.next
    in
    all q.head

let append q w =
  let l = Link { w; q; prev = q.tail; next = Nil } in
  (match q.tail with Nil -> q.head <- l | Link t -> t.next <- l);
  q.tail <- l;
  w.links <- l :: w.links

let unlink = function
  | Nil -> ()
  | Link l ->
    (match l.prev with Nil -> l.q.head <- l.next | Link p -> p.next <- l.next);
    (match l.next with Nil -> l.q.tail <- l.prev | Link n -> n.prev <- l.prev)

let park m ~on ?deadline payload =
  m.last_seq <- m.last_seq + 1;
  let w =
    {
      seq = m.last_seq;
      machine = m;
      payload;
      deadline = Option.value deadline ~default:max_int;
      links = [];
      due = -1;
      left = false;
    }
  in
  append m.all w;
  List.iter (fun q -> append q w) on;
  if deadline <> None then push m.timed w;
  m.parked <- m.parked + 1;
  w

(* [w] is done waiting: out of every queue, and an exclusive wake it may
   have taken passes to the waiter behind it. *)
let leave w =
  w.left <- true;
  w.machine.parked <- w.machine.parked - 1;
  List.iter
    (function
      | Nil -> ()
      | Link l as link ->
        (if l.q.exclusive then
           match l.next with Nil -> () | Link n -> schedule n.w);
        unlink link)
    w.links;
  w.links <- []

let run_pass m ~now visit =
  m.pass <- m.pass + 1;
  m.pos <- -1;
  while m.timed.n > 0 && (top m.timed).deadline <= now do
    let w = pop m.timed in
    if not w.left then schedule w
  done;
  while m.scheduled.n > 0 && (top m.scheduled).due = m.pass do
    let w = pop m.scheduled in
    w.due <- -1;
    if not w.left then begin
      m.pos <- w.seq;
      if not (visit w) then leave w
    end
  done;
  m.pos <- max_int

let rec next_deadline m =
  if m.timed.n = 0 then None
  else
    let w = top m.timed in
    if w.left then begin
      ignore (pop m.timed);
      next_deadline m
    end
    else Some w.deadline

let parked_payloads m =
  let rec go acc = function
    | Nil -> List.rev acc
    | Link l -> go (l.w.payload :: acc) l.next
  in
  go [] m.all.head
