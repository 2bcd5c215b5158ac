(* forkroad's host benchmark.

     main.exe --workload NAME --seed N --seconds S --trace 0|1 [--out DIR]
     main.exe --workload NAME --seed N --digest

   Runs one seeded workload (fork-cow, demand-warm or serve-parked) in
   this single host process and single OCaml domain: the simulator's
   threads are closures on one host thread, and nothing fans out. With
   --trace 0 it repeats untraced batches for S seconds and prints the
   end-to-end host metrics; with --trace 1 it interleaves untraced,
   probed and ksim-traced batches, replays the workload's memory
   geometry on vmem, times the trace exports, prints the per-layer
   split, and writes host spans as a Chrome trace and folded stacks
   under DIR (default perfbench/out). Every batch's simulated outputs
   are checked; the last stdout line is one JSON object. A failed check
   exits 1. --digest prints one batch's output digest (for refs.ml). *)

(* A workload, given a seed: a batch runner and its vmem replay spec. *)
type workload = {
  name : string;
  make : int -> (unit -> Batch.result * Ksim.Kernel.t) * (unit -> Replay.spec);
}

let workload name plan run replay =
  {
    name;
    make =
      (fun seed ->
        let p = plan ~seed in
        ((fun () -> run p), fun () -> replay p));
  }

let workloads =
  [
    workload Fork_cow.name Fork_cow.plan Fork_cow.run Fork_cow.replay;
    workload Demand_warm.name Demand_warm.plan Demand_warm.run Demand_warm.replay;
    workload Serve_parked.name Serve_parked.plan Serve_parked.run Serve_parked.replay;
  ]

let min_ops = 1000
let min_batches = 3

(* Stop starting batches past this, whatever --seconds says, so a run
   ends well inside three minutes. *)
let hard_limit_s = 120.0

let median xs =
  let a = Array.of_list xs in
  Array.sort compare a;
  Metrics.Stats.percentile a 50.0

let mb words = words *. 8.0 /. 1e6

(* ------------------------------------------------------------------ *)
(* Output checks *)

(* Every batch of a run repeats the same simulation, so its digest must
   equal the first batch's (whether traced or not) and, for a seed with
   a stored reference, that reference. *)
type verdict = { mutable problems : string list; mutable first : string option }

let verdict () = { problems = []; first = None }
let problem v fmt = Printf.ksprintf (fun p -> v.problems <- p :: v.problems) fmt

let check v ~seed ~workload (r : Batch.result) =
  List.iter (problem v "%s: %s" workload) r.problems;
  (match v.first with
  | None -> v.first <- Some r.digest
  | Some d ->
    if r.digest <> d then problem v "%s: digest %s differs from the run's first %s" workload r.digest d);
  match Refs.find ~workload ~seed with
  | Some d when d <> r.digest ->
    problem v "%s: digest %s differs from the stored reference %s for seed %d" workload r.digest d
      seed
  | Some _ | None -> ()

(* ------------------------------------------------------------------ *)
(* Results *)

type metric = { mname : string; value : float; unit_ : string }

let m mname unit_ value = { mname; value; unit_ }

let print_result ~correct ~attempted ~failed metrics =
  let json =
    Metrics.Json.obj
      [
        ("correct", Metrics.Json.bool correct);
        ("attempted", Metrics.Json.int attempted);
        ("failed", Metrics.Json.int failed);
        ( "metrics",
          Metrics.Json.obj
            (List.map
               (fun x ->
                 ( x.mname,
                   Metrics.Json.obj
                     [ ("value", Metrics.Json.num x.value); ("unit", Metrics.Json.str x.unit_) ] ))
               metrics) );
      ]
  in
  print_endline (Metrics.Json.to_string json)

let print_metrics title metrics =
  Printf.printf "%s\n" title;
  List.iter (fun x -> Printf.printf "  %-32s %14.6g %s\n" x.mname x.value x.unit_) metrics

(* ------------------------------------------------------------------ *)
(* --trace 0: end-to-end metrics *)

let end_to_end w ~seed ~seconds =
  let t_start = Probe.now () in
  let run, _ = w.make seed in
  let v = verdict () in
  let first_heap = ref 0 in
  let rec loop acc n_ops =
    let elapsed = Probe.now () -. t_start in
    let enough =
      elapsed >= seconds && List.length acc >= min_batches && n_ops >= min_ops
    in
    if enough || (acc <> [] && elapsed >= hard_limit_s) then List.rev acc
    else
      let r, _ = run () in
      if acc = [] then first_heap := (Gc.quick_stat ()).Gc.top_heap_words;
      Printf.printf "batch %2d  setup %.4f s  timed %.4f s  %.1f ops/s\n%!" (List.length acc)
        r.Batch.setup_s r.Batch.timed_s
        (float_of_int (Array.length r.Batch.lats) /. r.Batch.timed_s);
      check v ~seed ~workload:w.name r;
      loop (r :: acc) (n_ops + r.Batch.attempted)
  in
  let batches = loop [] 0 in
  let attempted = List.fold_left (fun a (r : Batch.result) -> a + r.attempted) 0 batches in
  let failed = List.fold_left (fun a (r : Batch.result) -> a + r.failed) 0 batches in
  let correct = v.problems = [] in
  let failed = if correct then failed else attempted in
  (* percentiles per batch, then their median: a slow stretch of the
     host slows a few batches, not the reported tail *)
  let pct q (r : Batch.result) =
    let a = Array.copy r.lats in
    Array.sort compare a;
    if Array.length a = 0 then nan else 1e3 *. Metrics.Stats.percentile a q
  in
  let per_batch f = median (List.map f batches) in
  let samples = List.fold_left (fun a (r : Batch.result) -> a + Array.length r.lats) 0 batches in
  let per_batch_samples = List.fold_left (fun a (r : Batch.result) -> min a (Array.length r.lats)) max_int batches in
  let metrics =
    [
      m "setup_s" "s" (per_batch (fun r -> r.Batch.setup_s));
      m "ops_per_s" "ops/s"
        (per_batch (fun r -> float_of_int (Array.length r.Batch.lats) /. r.Batch.timed_s));
      m "op_p50_ms" "ms" (per_batch (pct 50.0));
      m "op_p99_ms" "ms" (per_batch (pct 99.0));
      m "alloc_words_per_op" "words"
        (per_batch (fun r -> r.Batch.words /. float_of_int r.Batch.attempted));
      m "peak_heap_mb" "MB" (mb (float_of_int !first_heap));
    ]
  in
  Printf.printf
    "workload %s  seed %d  batches %d  ops %d  latency samples %d (per batch %d, %d beyond its p99)\n"
    w.name seed (List.length batches) attempted samples per_batch_samples
    (per_batch_samples - int_of_float (Float.ceil (0.99 *. float_of_int per_batch_samples)));
  Printf.printf "digest %s  generator lag %d ticks\n"
    (match batches with r :: _ -> r.Batch.digest | [] -> "-")
    (match batches with r :: _ -> r.Batch.lag_ticks | [] -> 0);
  print_metrics "end-to-end (host time, untraced)" metrics;
  Printf.printf "  %-32s %14.6g fraction\n" "error_rate"
    (float_of_int failed /. float_of_int (max 1 attempted));
  List.iter (fun p -> Printf.printf "CHECK FAILED %s\n" p) (List.rev v.problems);
  print_result ~correct ~attempted ~failed metrics;
  correct

(* ------------------------------------------------------------------ *)
(* --trace 1: per-layer metrics *)

(* The kinds every workload calls carry a per-kind self time in the
   result line; the table prints it for all kinds. *)
let timed_kinds = [ "touch"; "wait"; "exit"; "other" ]
let kstat_name = function
  | "exec" -> "execve"
  | "spawn" -> "posix_spawn"
  | "wait" -> "waitpid"
  | k -> k

let trace_capacity = 1 lsl 18

let timed f =
  let t0 = Probe.now () in
  let r = f () in
  (r, Probe.now () -. t0)

let write_file path s =
  let oc = open_out_bin path in
  output_string oc s;
  close_out oc

let rec mkdir_p d =
  if not (Sys.file_exists d) then begin
    mkdir_p (Filename.dirname d);
    Sys.mkdir d 0o755
  end

(* Host spans as a Chrome trace (one host thread: lane 1 user, lane 2
   ksim; then the replay and export phases) and as folded stacks, one
   pair of files per workload. *)
let write_spans ~dir ~workload ~extra =
  mkdir_p dir;
  let base = Filename.concat dir workload in
  let t0 = ref nan in
  let ev name tid ~start ~dur =
    if Float.is_nan !t0 then t0 := start;
    Metrics.Json.obj
      [
        ("name", Metrics.Json.str name);
        ("ph", Metrics.Json.str "X");
        ("pid", Metrics.Json.int 1);
        ("tid", Metrics.Json.int tid);
        ("ts", Metrics.Json.num ((start -. !t0) *. 1e6));
        ("dur", Metrics.Json.num (dur *. 1e6));
      ]
  in
  let events =
    Probe.fold_spans
      (fun acc ~owner ~start ~dur ->
        ev (Probe.owner_name owner) (if owner = Probe.user then 1 else 2) ~start ~dur :: acc)
      []
  in
  let extra_events = List.map (fun (name, start, dur) -> ev name 3 ~start ~dur) extra in
  let meta tid name =
    Metrics.Json.obj
      [
        ("name", Metrics.Json.str "thread_name");
        ("ph", Metrics.Json.str "M");
        ("pid", Metrics.Json.int 1);
        ("tid", Metrics.Json.int tid);
        ("args", Metrics.Json.obj [ ("name", Metrics.Json.str name) ]);
      ]
  in
  let doc =
    Metrics.Json.obj
      [
        ( "traceEvents",
          Metrics.Json.arr
            (meta 1 "user" :: meta 2 "ksim" :: meta 3 "vmem replay + exports"
            :: List.rev_append events extra_events) );
      ]
  in
  write_file (base ^ ".host-trace.json") (Metrics.Json.to_string doc);
  let folded = Hashtbl.create 32 in
  let add key us = Hashtbl.replace folded key (us +. Option.value ~default:0.0 (Hashtbl.find_opt folded key)) in
  ignore
    (Probe.fold_spans
       (fun () ~owner ~start:_ ~dur ->
         let frame = if owner = Probe.user then "user" else "ksim;" ^ Probe.kind_names.(owner) in
         add frame (dur *. 1e6))
       ());
  List.iter (fun (name, _, dur) -> add (String.map (fun c -> if c = '.' then ';' else c) name) (dur *. 1e6)) extra;
  let lines =
    Hashtbl.fold
      (fun k us acc -> Printf.sprintf "perfbench;%s;%s %.0f" workload k us :: acc)
      folded []
  in
  write_file (base ^ ".host.folded") (String.concat "\n" (List.sort compare lines) ^ "\n");
  base

let per_layer w ~seed ~seconds ~out =
  let t_start = Probe.now () in
  let run, replay = w.make seed in
  let v = verdict () in
  let attempted = ref 0 and failed = ref 0 in
  let traced_run ~probe ~kernel_trace =
    Probe.on := probe;
    if probe then Probe.reset ();
    Batch.trace_capacity := (if kernel_trace then Some trace_capacity else None);
    let ((r : Batch.result), _) as rt =
      Fun.protect ~finally:(fun () -> Probe.on := false; Batch.trace_capacity := None) run
    in
    check v ~seed ~workload:w.name r;
    attempted := !attempted + r.attempted;
    failed := !failed + r.failed;
    rt
  in
  (* Rounds of one untraced, one probed and one ksim-traced batch, in an
     order that rotates so no kind always runs first, while another
     round still fits in [seconds]. The probed batch's state (spans
     included) and the ksim-traced machine are kept from the last round
     only. *)
  let walls = Array.make 3 [] and last = ref None and last_k = ref None in
  let rec rounds n =
    let round_start = Probe.now () in
    for j = 0 to 2 do
      match (n + j) mod 3 with
      | 0 ->
        let u, _ = traced_run ~probe:false ~kernel_trace:false in
        walls.(0) <- u.Batch.run_s :: walls.(0)
      | 1 ->
        let gc0 = Gc.quick_stat () in
        let p, _ = traced_run ~probe:true ~kernel_trace:false in
        let gc1 = Gc.quick_stat () in
        walls.(1) <- p.Batch.run_s :: walls.(1);
        last :=
          Some
            ( p,
              ( Array.copy Probe.self_s, Array.copy Probe.self_words, Array.copy Probe.calls,
                Array.copy Probe.user_acc, !Probe.parked_peak, Probe.parked_mean () ),
              (gc0, gc1) )
      | _ ->
        let ((k, _) as kt) = traced_run ~probe:false ~kernel_trace:true in
        walls.(2) <- k.Batch.run_s :: walls.(2);
        last_k := Some kt
    done;
    let now = Probe.now () in
    let next_end = now -. t_start +. (now -. round_start) in
    if next_end > seconds || next_end > hard_limit_s then n + 1 else rounds (n + 1)
  in
  let n_rounds = rounds 0 in
  let u_wall = median walls.(0) and p_wall = median walls.(1) and k_wall = median walls.(2) in
  let p, (self_s, self_words, calls, user_acc, parked_peak, parked_mean), (gc0, gc1) =
    Option.get !last
  in
  let k, kernel = Option.get !last_k in
  let kernel_s = Array.fold_left ( +. ) 0.0 self_s in
  let kernel_words = Array.fold_left ( +. ) 0.0 self_words in
  let n_sys = Array.fold_left ( + ) 0 calls in
  let g = Ksim.Kstat.global (Ksim.Kernel.kstat kernel) in
  let kinds = Ksim.Kstat.kinds g in
  let kcount name = Option.value ~default:0 (List.assoc_opt name kinds) in
  Array.iteri
    (fun i name ->
      if i <> Probe.k_other && calls.(i) <> kcount (kstat_name name) then
        problem v "%s: probe saw %d %s calls, kstat %d" w.name calls.(i) name
          (kcount (kstat_name name)))
    Probe.kind_names;
  (* exports of the ksim-traced batch *)
  let tr = Option.get (Ksim.Kernel.trace kernel) in
  let chrome, to_chrome_s = timed (fun () -> Ksim.Trace.to_chrome tr) in
  let _, to_jsonl_s = timed (fun () -> Ksim.Trace.to_jsonl tr) in
  let tree, span_tree_s = timed (fun () -> Profile.Span_tree.build kernel) in
  let _, folded_s = timed (fun () -> Profile.Folded.render tree) in
  let _, encode_s = timed (fun () -> Metrics.Json.to_string chrome) in
  (* vmem replay of the workload's geometry *)
  let rp, replay_s = timed (fun () -> Replay.run (replay ())) in
  let ms s = s *. 1e3 in
  let per_call s n = if n = 0 then 0.0 else s /. float_of_int n in
  let kind_metrics =
    List.concat
      (Array.to_list
         (Array.mapi
            (fun i name ->
                (if List.mem name timed_kinds then [ m ("ksim." ^ name ^ ".self_ms") "ms" (ms self_s.(i)) ]
                 else [])
                @ [
                    m ("ksim." ^ name ^ ".calls") "count" (float_of_int calls.(i));
                    m ("ksim." ^ name ^ ".words") "words" self_words.(i);
                  ])
            Probe.kind_names))
  in
  let ra_pulled = g.Ksim.Kstat.pages_fetched - g.Ksim.Kstat.major_faults in
  let count name x = m name "count" (float_of_int x) in
  let metrics =
    [
      m "ksim.self_ms" "ms" (ms kernel_s);
      count "ksim.syscalls" n_sys;
      m "ksim.ns_per_syscall" "ns" (per_call (kernel_s *. 1e9) n_sys);
      m "ksim.words_per_syscall" "words" (per_call kernel_words n_sys);
    ]
    @ kind_metrics
    @ [
        m "ksim.parked_peak" "count" (float_of_int parked_peak);
        m "ksim.parked_mean" "count" parked_mean;
        m "vmem.clone_cow.ns_per_pte" "ns" (Replay.ns_per rp.Replay.clone_cow);
        m "vmem.clone_cow.words_per_pte" "words" (Replay.words_per rp.Replay.clone_cow);
        m "vmem.cow_touch.ns_per_page" "ns" (Replay.ns_per rp.Replay.cow_touch);
        m "vmem.cow_touch.words_per_page" "words" (Replay.words_per rp.Replay.cow_touch);
        m "vmem.zero_touch.ns_per_page" "ns" (Replay.ns_per rp.Replay.zero_touch);
        m "vmem.destroy.ns_per_page" "ns" (Replay.ns_per rp.Replay.destroy);
        count "vmem.ptes_copied" g.Ksim.Kstat.ptes_copied;
        count "vmem.pt_pages_copied" g.Ksim.Kstat.pt_pages_copied;
        count "vmem.cow_breaks" g.Ksim.Kstat.cow_breaks;
        count "vmem.frames_copied" g.Ksim.Kstat.frames_copied;
        count "vmem.tlb_shootdowns" g.Ksim.Kstat.tlb_shootdowns;
        count "vmem.ipis_sent" g.Ksim.Kstat.ipis_sent;
        m "vmem.lazy_touch.ns_per_page" "ns" (Replay.ns_per rp.Replay.lazy_touch);
        m "vmem.lazy_touch.words_per_page" "words" (Replay.words_per rp.Replay.lazy_touch);
        count "pager.requests" g.Ksim.Kstat.major_faults;
        count "pager.pages_fetched" g.Ksim.Kstat.pages_fetched;
        count "pager.readahead_hits" g.Ksim.Kstat.readahead_hits;
        m "pager.readahead_useful" "ratio"
          (per_call (float_of_int g.Ksim.Kstat.readahead_hits) ra_pulled);
        count "socket.accepts" g.Ksim.Kstat.sock_accepts;
        count "socket.refused" g.Ksim.Kstat.sock_refused;
        count "socket.accept_queue_peak" g.Ksim.Kstat.accept_queue_peak;
        count "poll.wakeups" g.Ksim.Kstat.poll_wakeups;
        m "serve.gen_lag_ticks" "ticks" (float_of_int k.Batch.lag_ticks);
        m "trace.overhead_pct" "%" (100.0 *. ((k_wall /. u_wall) -. 1.0));
        m "probe.overhead_pct" "%" (100.0 *. ((p_wall /. u_wall) -. 1.0));
        count "trace.events" (Ksim.Trace.total tr);
        m "trace.to_chrome_ms" "ms" (ms to_chrome_s);
        m "trace.to_jsonl_ms" "ms" (ms to_jsonl_s);
        m "profile.span_tree_ms" "ms" (ms span_tree_s);
        m "profile.folded_ms" "ms" (ms folded_s);
        m "json.encode_ms" "ms" (ms encode_s);
        count "gc.minor_collections" (gc1.Gc.minor_collections - gc0.Gc.minor_collections);
        count "gc.major_collections" (gc1.Gc.major_collections - gc0.Gc.major_collections);
        m "gc.promoted_words" "words" (gc1.Gc.promoted_words -. gc0.Gc.promoted_words);
        m "user.self_ms" "ms" (ms user_acc.(0));
      ]
  in
  (* the per-layer table *)
  let p_run = p.Batch.run_s in
  Printf.printf "workload %s  seed %d  rounds %d (untraced / probed / ksim-traced batches)\n"
    w.name seed n_rounds;
  Printf.printf "host self time and minor words by layer, probed batch (Kernel.run wall %.3f ms)\n"
    (ms p_run);
  Printf.printf "  %-22s %9s %12s %14s %12s %12s\n" "layer" "calls" "self ms" "words" "ns/call" "words/call";
  Array.iteri
    (fun i name ->
      Printf.printf "  %-22s %9d %12.3f %14.0f %12.0f %12.1f\n" ("ksim." ^ name) calls.(i) (ms self_s.(i))
        self_words.(i) (per_call (self_s.(i) *. 1e9) calls.(i)) (per_call self_words.(i) calls.(i)))
    Probe.kind_names;
  Printf.printf "  %-22s %9d %12.3f %14.0f\n" "ksim (total)" n_sys (ms kernel_s) kernel_words;
  Printf.printf "  %-22s %9s %12.3f %14.0f\n" "user" "" (ms user_acc.(0)) user_acc.(1);
  Printf.printf "  kernel + user = %.3f ms of %.3f ms wall (unaccounted %.3f ms)\n"
    (ms (kernel_s +. user_acc.(0))) (ms p_run) (ms (p_run -. kernel_s -. user_acc.(0)));
  Printf.printf "  tracing overhead: host probe %+.1f%%, ksim trace %+.1f%% (median walls %.1f / %.1f / %.1f ms)\n"
    (100.0 *. ((p_wall /. u_wall) -. 1.0)) (100.0 *. ((k_wall /. u_wall) -. 1.0))
    (ms u_wall) (ms p_wall) (ms k_wall);
  Printf.printf "  vmem replay (%.0f ms): clone_cow %d PTEs, cow touch %d pages, zero %d pages, destroy %d pages, lazy %d pages\n"
    (ms replay_s) rp.Replay.clone_cow.Replay.units rp.Replay.cow_touch.Replay.units
    rp.Replay.zero_touch.Replay.units rp.Replay.destroy.Replay.units rp.Replay.lazy_touch.Replay.units;
  Printf.printf "  pager readahead useful: %d hits of %d readahead-pulled pages\n"
    g.Ksim.Kstat.readahead_hits ra_pulled;
  let extra =
    let at = ref (Probe.now ()) in
    List.map
      (fun (name, dur) ->
        let start = !at in
        at := !at +. dur;
        (name, start, dur))
      [
        ("vmem.replay", replay_s);
        ("observability.trace_to_chrome", to_chrome_s);
        ("observability.trace_to_jsonl", to_jsonl_s);
        ("observability.span_tree", span_tree_s);
        ("observability.folded", folded_s);
        ("observability.json_encode", encode_s);
      ]
  in
  let base = write_spans ~dir:out ~workload:w.name ~extra in
  Printf.printf "  host spans: %s.host-trace.json, %s.host.folded (%d spans, %d dropped)\n" base base
    !Probe.n_spans !Probe.dropped;
  print_metrics "per-layer" metrics;
  List.iter (fun p -> Printf.printf "CHECK FAILED %s\n" p) (List.rev v.problems);
  let correct = v.problems = [] in
  print_result ~correct ~attempted:!attempted
    ~failed:(if correct then !failed else !attempted)
    metrics;
  correct

(* ------------------------------------------------------------------ *)

let () =
  let workload = ref "" and seed = ref 1 and seconds = ref 10.0 and trace = ref 0 in
  let out = ref (Filename.concat "perfbench" "out") and digest = ref false in
  Arg.parse
    [
      ("--workload", Arg.Set_string workload, "NAME fork-cow | demand-warm | serve-parked");
      ("--seed", Arg.Set_int seed, "N input seed");
      ("--seconds", Arg.Set_float seconds, "S measuring time");
      ("--trace", Arg.Set_int trace, "0|1 end-to-end (0) or per-layer (1) metrics");
      ("--out", Arg.Set_string out, "DIR where --trace 1 writes host spans");
      ("--digest", Arg.Set digest, " print one batch's output digest and exit");
    ]
    (fun a -> raise (Arg.Bad ("unexpected argument " ^ a)))
    "main.exe --workload NAME --seed N --seconds S --trace 0|1";
  let gc = Gc.get () in
  Printf.printf
    "host: %d cpus, OCaml %s, 1 domain; GC minor_heap_size %d words, space_overhead %d\n"
    (Domain.recommended_domain_count ()) Sys.ocaml_version gc.Gc.minor_heap_size
    gc.Gc.space_overhead;
  match List.find_opt (fun w -> w.name = !workload) workloads with
  | None ->
    prerr_endline ("unknown workload " ^ !workload);
    exit 2
  | Some w ->
    let ok =
      if !digest then begin
        let run, _ = w.make !seed in
        let r, _ = run () in
        Printf.printf "%s %d %s\n" w.name !seed r.Batch.digest;
        r.Batch.problems = []
      end
      else if !trace = 0 then end_to_end w ~seed:!seed ~seconds:!seconds
      else per_layer w ~seed:!seed ~seconds:!seconds ~out:!out
    in
    exit (if ok then 0 else 1)
