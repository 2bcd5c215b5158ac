(* One batch: boot a fresh kernel, run one simulation to completion with
   the benchmark as its only client, then check and digest the
   simulated outputs. A workload's init program calls [mark_first] just
   before its first timed op and [mark_last] after its last one. *)

type result = {
  setup_s : float;  (** batch start to the first timed op *)
  timed_s : float;  (** first timed op to the end of the last one *)
  run_s : float;  (** wall time of [Kernel.run] *)
  lats : float array;  (** host latency per completed op, seconds *)
  attempted : int;
  failed : int;  (** ops that met an unplanned errno *)
  words : float;  (** minor words allocated during the timed phase *)
  lag_ticks : int;  (** open loops: summed lateness of the generator *)
  digest : string;  (** of the simulated outputs (see [digest]) *)
  problems : string list;  (** failed output checks *)
}

(* start, first op, last op, words at first op, words at last op *)
let marks = Array.make 5 0.0

let mark_first () =
  marks.(1) <- Probe.now ();
  marks.(3) <- Gc.minor_words ()

let mark_last () =
  marks.(2) <- Probe.now ();
  marks.(4) <- Gc.minor_words ()

(* Op bookkeeping shared by the simulated programs and the harness:
   simulated processes run on the harness heap, so plain arrays written
   by them are read back after the run. *)
type ops = {
  lat : float array;  (** per op; negative until the op completes *)
  status : int array;  (** per op: its child's exit code, or an errno code *)
  mutable completed : int;
  mutable failed : int;
  mutable lag_ticks : int;
}

let ops n =
  { lat = Array.make n (-1.0); status = Array.make n 0; completed = 0; failed = 0;
    lag_ticks = 0 }

let complete o i ~t0 =
  o.lat.(i) <- Probe.now () -. t0;
  o.completed <- o.completed + 1

let fail o i code =
  o.status.(i) <- code;
  o.failed <- o.failed + 1

(* Codes for ops that failed: an unplanned errno, or an abnormal exit. *)
let errno_code e =
  let rec index i = function
    | [] -> 0
    | x :: rest -> if Ksim.Errno.equal x e then i else index (i + 1) rest
  in
  1000 + index 1 Ksim.Errno.all
let killed_code = 999

(* The closed loop of the process-creation workloads: op i creates a
   child with [create], waits for it and completes if it exited 0. *)
let closed_loop o plan create =
  mark_first ();
  Array.iteri
    (fun i op ->
      let t0 = Probe.now () in
      match create op with
      | Error e -> fail o i (errno_code e)
      | Ok pid -> (
        match Call.wait_for pid with
        | Error e -> fail o i (errno_code e)
        | Ok (Ksim.Types.Exited 0) -> complete o i ~t0
        | Ok (Ksim.Types.Exited n) -> fail o i n
        | Ok (Ksim.Types.Killed _) -> fail o i killed_code))
    plan;
  mark_last ()

let max_ticks = 1_000_000_000

(* [Some n] runs the next batches with the ksim trace on (ring of n). *)
let trace_capacity : int option ref = ref None

(* The digest covers the cycle meter by category, the non-zero Kstat
   global counters, the console, every op status plus init's, and the
   run outcome. Floats are printed exactly. *)
let digest t ~outcome ~statuses =
  let b = Buffer.create 4096 in
  List.iter
    (fun (c, (cy, n)) -> Printf.bprintf b "cost %s %h %d\n" c cy n)
    (Vmem.Cost.by_category_counts (Ksim.Kernel.cost t));
  List.iter
    (fun (k, v) -> if v <> 0 then Printf.bprintf b "kstat %s %d\n" k v)
    (Ksim.Kstat.snapshot (Ksim.Kstat.global (Ksim.Kernel.kstat t)));
  Printf.bprintf b "console %S\n" (Ksim.Kernel.console t);
  Array.iter (fun s -> Printf.bprintf b "status %d\n" s) statuses;
  (match Ksim.Kernel.status_of t 1 with
  | Some s -> Format.kasprintf (Buffer.add_string b) "init %a\n" Ksim.Types.pp_status s
  | None -> Buffer.add_string b "init none\n");
  Format.kasprintf (Buffer.add_string b) "outcome %a\n" Ksim.Kernel.pp_outcome
    outcome;
  Digest.to_hex (Digest.string (Buffer.contents b))

(* Invariants every batch must meet, whatever the seed. *)
let invariants t ~outcome (o : ops) =
  let frames = Ksim.Kernel.frames t in
  let g = Ksim.Kstat.global (Ksim.Kernel.kstat t) in
  let n = Array.length o.lat in
  List.filter_map Fun.id
    [
      (match Ksim.Kernel.status_of t 1 with
      | Some (Ksim.Types.Exited 0) -> None
      | Some s -> Some (Format.asprintf "init ended %a" Ksim.Types.pp_status s)
      | None -> Some "init did not end");
      (match outcome with
      | Ksim.Kernel.All_exited -> None
      | o -> Some (Format.asprintf "outcome %a" Ksim.Kernel.pp_outcome o));
      (if Vmem.Frame.used frames <> 0 then
         Some (Printf.sprintf "%d frames used after exit" (Vmem.Frame.used frames))
       else None);
      (if Vmem.Frame.committed frames <> 0 then
         Some
           (Printf.sprintf "%d pages committed after exit"
              (Vmem.Frame.committed frames))
       else None);
      (if o.completed <> n then
         Some (Printf.sprintf "%d of %d ops completed" o.completed n)
       else None);
      (if g.Ksim.Kstat.oom_kills <> 0 then
         Some (Printf.sprintf "%d OOM kills" g.Ksim.Kstat.oom_kills)
       else None);
    ]

(* Boot a kernel whose init runs [init t], run it, and check it. [check]
   adds the workload's own invariants. The machine is returned apart,
   so callers keep it only as long as they need it. *)
let run ~config ~programs ~ops:(o : ops) ?(check = fun _ -> []) init =
  Array.fill marks 0 5 0.0;
  marks.(0) <- Probe.now ();
  let config = { config with Ksim.Kernel.trace_capacity = !trace_capacity } in
  let t = Ksim.Kernel.create ~config () in
  Ksim.Kernel.register_all t
    (Call.program "/sbin/init" (fun _ -> init t) :: programs);
  (match Ksim.Kernel.spawn_init t "/sbin/init" with
  | Ok _ -> ()
  | Error e -> failwith ("spawn_init: " ^ Ksim.Errno.to_string e));
  let r0 = Probe.now () in
  Probe.begin_run ();
  let outcome = Ksim.Kernel.run ~max_ticks t in
  Probe.end_run ();
  let run_s = Probe.now () -. r0 in
  let problems = invariants t ~outcome o @ check t in
  let problems =
    if marks.(1) = 0.0 || marks.(2) = 0.0 then "timed phase not reached" :: problems
    else problems
  in
  let lats =
    Array.of_list (List.filter (fun l -> l >= 0.0) (Array.to_list o.lat))
  in
  ( {
    setup_s = marks.(1) -. marks.(0);
    timed_s = marks.(2) -. marks.(1);
    run_s;
    lats;
    attempted = Array.length o.lat;
    failed = o.failed;
    words = marks.(4) -. marks.(3);
    lag_ticks = o.lag_ticks;
    digest = digest t ~outcome ~statuses:o.status;
    problems;
  },
  t )
