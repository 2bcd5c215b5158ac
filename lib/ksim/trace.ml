type phase = Begin | End | Instant

type detail =
  | D_none
  | D_fork of { live_threads : int }
  | D_exec of { inherited_fds : int }
  | D_exit of { open_fds : int }
  | D_open of { path : string; cloexec : bool }
  | D_child of { child : Types.pid; style : string }
  | D_tpl of { tpl : int }
  | D_mutex of { mutex : int }
  | D_port of { port : int }
  | D_listen of { backlog : int }
  | D_poll of { nfds : int; timeout : int }

type outcome = Ok_result | Err of Errno.t

type injected = { reply : Errno.t option; frame_allocs : int; commits : int }

let no_injections = { reply = None; frame_allocs = 0; commits = 0 }

type event = {
  seq : int;
  tick : int;
  pid : Types.pid;
  tid : Types.tid;
  what : string;
  phase : phase;
  detail : detail;
  injected : injected;
  ts_ns : float;
  span_ns : float;
  outcome : outcome option;
  cpu : int option;  (** simulated CPU, recorded only by SMP kernels *)
}

type t = {
  capacity : int;
  ring : event option array;
  mutable total : int;
}

let create ?(capacity = 4096) () =
  if capacity <= 0 then invalid_arg "Trace.create: capacity <= 0";
  { capacity; ring = Array.make capacity None; total = 0 }

let record ?(phase = Instant) ?(detail = D_none) ?(injected = no_injections)
    ?(ts_ns = 0.0) ?(span_ns = 0.0) ?outcome ?cpu t ~tick ~pid ~tid what =
  let e =
    {
      seq = t.total;
      tick;
      pid;
      tid;
      what;
      phase;
      detail;
      injected;
      ts_ns;
      span_ns;
      outcome;
      cpu;
    }
  in
  t.ring.(t.total mod t.capacity) <- Some e;
  t.total <- t.total + 1

let events t =
  let out = ref [] in
  let start = max 0 (t.total - t.capacity) in
  for seq = t.total - 1 downto start do
    match t.ring.(seq mod t.capacity) with
    | Some e when e.seq = seq -> out := e :: !out
    | Some _ | None -> ()
  done;
  !out

let total t = t.total

(* Single substring scan, hoisted so [find] allocates nothing per
   candidate position: compare in place, short-circuiting on the first
   character. *)
let contains_substring hay needle =
  let nh = String.length hay and nn = String.length needle in
  if nn = 0 then true
  else begin
    let c0 = String.unsafe_get needle 0 in
    let rec rest i j =
      j >= nn || (String.unsafe_get hay (i + j) = String.unsafe_get needle j
                  && rest i (j + 1))
    in
    let limit = nh - nn in
    let rec go i =
      i <= limit && ((String.unsafe_get hay i = c0 && rest i 1) || go (i + 1))
    in
    go 0
  end

let find t ~pattern =
  List.filter (fun e -> contains_substring e.what pattern) (events t)

(* ------------------------------------------------------------------ *)
(* Exporters *)

let phase_string = function Begin -> "B" | End -> "E" | Instant -> "i"

let detail_fields = function
  | D_none -> []
  | D_fork { live_threads } ->
    [ ("live_threads", Metrics.Json.int live_threads) ]
  | D_exec { inherited_fds } ->
    [ ("inherited_fds", Metrics.Json.int inherited_fds) ]
  | D_exit { open_fds } -> [ ("open_fds", Metrics.Json.int open_fds) ]
  | D_open { path; cloexec } ->
    [ ("path", Metrics.Json.str path); ("cloexec", Metrics.Json.bool cloexec) ]
  | D_child { child; style } ->
    [ ("child", Metrics.Json.int child); ("style", Metrics.Json.str style) ]
  | D_tpl { tpl } -> [ ("tpl", Metrics.Json.int tpl) ]
  | D_mutex { mutex } -> [ ("mutex", Metrics.Json.int mutex) ]
  | D_port { port } -> [ ("port", Metrics.Json.int port) ]
  | D_listen { backlog } -> [ ("backlog", Metrics.Json.int backlog) ]
  | D_poll { nfds; timeout } ->
    [ ("nfds", Metrics.Json.int nfds); ("timeout", Metrics.Json.int timeout) ]

let outcome_fields = function
  | None -> []
  | Some Ok_result -> [ ("result", Metrics.Json.str "ok") ]
  | Some (Err e) -> [ ("result", Metrics.Json.str (Errno.to_string e)) ]

let injection_fields { reply; frame_allocs; commits } =
  let count key n = if n > 0 then [ (key, Metrics.Json.int n) ] else [] in
  (match reply with
  | Some e -> [ ("injected", Metrics.Json.str (Errno.to_string e)) ]
  | None -> [])
  @ count "injected_frame_allocs" frame_allocs
  @ count "injected_commits" commits

(* The annotation keys of one event: outcome, detail, injections. *)
let annotation_fields e =
  outcome_fields e.outcome @ detail_fields e.detail
  @ injection_fields e.injected

let event_json e =
  Metrics.Json.obj
    ([
       ("seq", Metrics.Json.int e.seq);
       ("tick", Metrics.Json.int e.tick);
       ("pid", Metrics.Json.int e.pid);
       ("tid", Metrics.Json.int e.tid);
       ("what", Metrics.Json.str e.what);
       ("phase", Metrics.Json.str (phase_string e.phase));
       ("ts_ns", Metrics.Json.num e.ts_ns);
     ]
    @ (if e.span_ns > 0.0 then [ ("span_ns", Metrics.Json.num e.span_ns) ]
       else [])
    @ (match e.cpu with
      | Some c -> [ ("cpu", Metrics.Json.int c) ]
      | None -> [])
    @ annotation_fields e)

let to_jsonl t =
  let buf = Buffer.create 4096 in
  List.iter
    (fun e ->
      Buffer.add_string buf (Metrics.Json.to_string (event_json e));
      Buffer.add_char buf '\n')
    (events t);
  Buffer.contents buf

(* Chrome trace_event JSON (load in Perfetto / chrome://tracing).
   Timestamps are microseconds; Begin/End map to "B"/"E" duration
   events, everything else to "i" instants. Every event already carries
   its real pid/tid, so each process gets its own track; the "M"
   metadata events below name the tracks (pid 1 is the root, children
   are labelled with the creation style recorded in their D_child
   instant) and order them by pid, which is creation order.

   [~lanes:`Cpu] instead renders one lane per simulated CPU (one
   synthetic process, tid = cpu id): the per-CPU timeline view of an
   SMP run. Events recorded without a cpu land in a "cpu ?" lane. *)
let to_chrome ?(lanes = `Pid) t =
  let us ns = ns /. 1000.0 in
  let evs = events t in
  let styles : (Types.pid, string) Hashtbl.t = Hashtbl.create 16 in
  List.iter
    (fun e ->
      match e.detail with
      | D_child { child; style } ->
        if not (Hashtbl.mem styles child) then Hashtbl.add styles child style
      | _ -> ())
    evs;
  let pids =
    List.sort_uniq compare (List.map (fun e -> e.pid) evs)
  in
  let tids =
    List.sort_uniq compare (List.map (fun e -> (e.pid, e.tid)) evs)
  in
  let meta name pid extra_args =
    Metrics.Json.obj
      ([
         ("name", Metrics.Json.str name);
         ("ph", Metrics.Json.str "M");
         ("pid", Metrics.Json.int pid);
       ]
      @ extra_args)
  in
  let process_meta =
    List.concat_map
      (fun pid ->
        let label =
          match Hashtbl.find_opt styles pid with
          | Some style -> Printf.sprintf "pid %d (%s)" pid style
          | None -> Printf.sprintf "pid %d" pid
        in
        [
          meta "process_name" pid
            [
              ( "args",
                Metrics.Json.obj [ ("name", Metrics.Json.str label) ] );
            ];
          meta "process_sort_index" pid
            [
              ( "args",
                Metrics.Json.obj [ ("sort_index", Metrics.Json.int pid) ] );
            ];
        ])
      pids
  in
  let thread_meta =
    List.map
      (fun (pid, tid) ->
        meta "thread_name" pid
          [
            ("tid", Metrics.Json.int tid);
            ( "args",
              Metrics.Json.obj
                [ ("name", Metrics.Json.str (Printf.sprintf "tid %d" tid)) ]
            );
          ])
      tids
  in
  (* lane assignment: `Pid keeps the real (pid, tid); `Cpu collapses
     everything into one synthetic process whose threads are the CPUs *)
  let lane_pid, lane_tid =
    match lanes with
    | `Pid -> ((fun e -> e.pid), fun e -> e.tid)
    | `Cpu ->
      ( (fun _ -> 0),
        fun e -> match e.cpu with Some c -> c | None -> -1 )
  in
  let cpu_meta =
    match lanes with
    | `Pid -> []
    | `Cpu ->
      let cpus =
        List.sort_uniq compare
          (List.map (fun e -> match e.cpu with Some c -> c | None -> -1) evs)
      in
      meta "process_name" 0
        [
          ( "args",
            Metrics.Json.obj [ ("name", Metrics.Json.str "ksim cpus") ] );
        ]
      :: List.map
           (fun c ->
             let name = if c < 0 then "cpu ?" else Printf.sprintf "cpu %d" c in
             meta "thread_name" 0
               [
                 ("tid", Metrics.Json.int c);
                 ( "args",
                   Metrics.Json.obj [ ("name", Metrics.Json.str name) ] );
               ])
           cpus
  in
  let ev e =
    let common =
      [
        ("name", Metrics.Json.str e.what);
        ("ph", Metrics.Json.str (phase_string e.phase));
        ("ts", Metrics.Json.num (us e.ts_ns));
        ("pid", Metrics.Json.int (lane_pid e));
        ("tid", Metrics.Json.int (lane_tid e));
      ]
    in
    let scope =
      match e.phase with
      | Instant -> [ ("s", Metrics.Json.str "t") ]
      | Begin | End -> []
    in
    Metrics.Json.obj
      (common @ scope
      @
      match annotation_fields e with
      | [] -> []
      | a -> [ ("args", Metrics.Json.obj a) ])
  in
  let metadata =
    match lanes with
    | `Pid -> process_meta @ thread_meta
    | `Cpu -> cpu_meta
  in
  Metrics.Json.obj
    [
      ("traceEvents", Metrics.Json.arr (metadata @ List.map ev evs));
      ("displayTimeUnit", Metrics.Json.str "ns");
    ]
