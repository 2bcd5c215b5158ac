(* Host-time tracing of the benchmark's own calls into ksim.

   The simulator runs every simulated thread as a closure on one host
   thread, so host time alternates between user segments (the
   benchmark's simulated program code) and kernel segments. A kernel
   segment runs from a syscall wrapper's entry to the next moment any
   simulated thread resumes from a syscall or starts; it is charged,
   with the minor words allocated during it, to the syscall that
   entered it. Segments are contiguous, so kernel plus user time is the
   wall time of [Kernel.run].

   Switched off (the default), every hook is one [if] on a bool ref:
   the untraced end-to-end runs pay nothing else. Spans are kept in
   memory and exported when the benchmark ends. *)

let kind_names =
  [|
    "fork"; "exec"; "spawn"; "template_spawn"; "touch"; "wait"; "exit";
    "socket"; "connect"; "accept"; "read"; "write"; "close"; "poll";
    "thread_create"; "other";
  |]

let n_kinds = Array.length kind_names
let kind name =
  let rec find i =
    if i = n_kinds then invalid_arg ("Probe.kind: " ^ name)
    else if kind_names.(i) = name then i
    else find (i + 1)
  in
  find 0

let k_fork = kind "fork"
let k_exec = kind "exec"
let k_spawn = kind "spawn"
let k_template_spawn = kind "template_spawn"
let k_touch = kind "touch"
let k_wait = kind "wait"
let k_exit = kind "exit"
let k_socket = kind "socket"
let k_connect = kind "connect"
let k_accept = kind "accept"
let k_read = kind "read"
let k_write = kind "write"
let k_close = kind "close"
let k_poll = kind "poll"
let k_thread_create = kind "thread_create"

(* Kernel work outside the listed syscalls: boot until init starts,
   setup syscalls (mmap, freeze, bind, ...) and the teardown of a
   thread whose closure returned. *)
let k_other = kind "other"
let user = -1

let now () = Int64.to_float (Monotonic_clock.now ()) *. 1e-9

let on = ref false
let cur = ref user
let seg = [| 0.0; 0.0 |] (* open segment: start (s), minor words at start *)
let self_s = Array.make n_kinds 0.0
let self_words = Array.make n_kinds 0.0
let calls = Array.make n_kinds 0
let user_acc = [| 0.0; 0.0 |] (* user time (s), user minor words *)

(* Simulated threads currently suspended in a syscall that returns: at
   each entry, the others are parked (blocked) or queued to resume. *)
let suspended = ref 0
let parked_peak = ref 0
let parked_sum = ref 0

(* Span log: owner (kind index, or [user]), start and duration. *)
let max_spans = 100_000
let sp_owner = ref [||]
let sp_start = ref [||]
let sp_dur = ref [||]
let n_spans = ref 0
let dropped = ref 0

let reset () =
  cur := user;
  Array.fill self_s 0 n_kinds 0.0;
  Array.fill self_words 0 n_kinds 0.0;
  Array.fill calls 0 n_kinds 0;
  Array.fill user_acc 0 2 0.0;
  suspended := 0;
  parked_peak := 0;
  parked_sum := 0;
  if Array.length !sp_owner = 0 then begin
    sp_owner := Array.make max_spans 0;
    sp_start := Array.make max_spans 0.0;
    sp_dur := Array.make max_spans 0.0
  end;
  n_spans := 0;
  dropped := 0

let switch next =
  let t = now () in
  let w = Gc.minor_words () in
  let d = t -. seg.(0) and dw = w -. seg.(1) in
  let k = !cur in
  if k = user then begin
    user_acc.(0) <- user_acc.(0) +. d;
    user_acc.(1) <- user_acc.(1) +. dw
  end
  else begin
    self_s.(k) <- self_s.(k) +. d;
    self_words.(k) <- self_words.(k) +. dw
  end;
  let i = !n_spans in
  if i < max_spans then begin
    !sp_owner.(i) <- k;
    !sp_start.(i) <- seg.(0);
    !sp_dur.(i) <- d;
    n_spans := i + 1
  end
  else incr dropped;
  seg.(0) <- t;
  seg.(1) <- w;
  cur := next

(* [Kernel.run] is about to start: the kernel owns the host until the
   first simulated thread starts. *)
let begin_run () =
  if !on then begin
    seg.(0) <- now ();
    seg.(1) <- Gc.minor_words ();
    cur := k_other
  end

(* [Kernel.run] returned: close the last kernel segment. *)
let end_run () = if !on then switch user

let note_entry k =
  calls.(k) <- calls.(k) + 1;
  let p = !suspended in
  if p > !parked_peak then parked_peak := p;
  parked_sum := !parked_sum + p

(* A syscall that returns to its caller. *)
let enter k =
  if !on then begin
    note_entry k;
    incr suspended;
    switch k
  end

let resume () =
  if !on then begin
    decr suspended;
    switch user
  end

(* exit, and exec on success: the calling code never resumes. *)
let enter_final k =
  if !on then begin
    note_entry k;
    switch k
  end

let resume_final () = if !on then switch user

(* Wrap the entry of a child, thread or program closure. A thread whose
   closure returns hands the host back to the kernel for its teardown. *)
let thread f =
  if !on then (fun () ->
    switch user;
    f ();
    switch k_other)
  else f

let syscalls () = Array.fold_left ( + ) 0 calls

let parked_mean () =
  let n = syscalls () in
  if n = 0 then 0.0 else float_of_int !parked_sum /. float_of_int n

let owner_name k = if k = user then "user" else "ksim." ^ kind_names.(k)

(* Fold over the logged spans in time order. *)
let fold_spans f acc =
  let acc = ref acc in
  for i = 0 to !n_spans - 1 do
    acc := f !acc ~owner:!sp_owner.(i) ~start:!sp_start.(i) ~dur:!sp_dur.(i)
  done;
  !acc
