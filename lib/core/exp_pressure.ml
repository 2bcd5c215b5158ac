(* E13 — process creation under memory pressure: as the parent's
   footprint eats the machine, which creation APIs keep working, and
   what do their latency tails look like? Under strict commit accounting
   fork must re-commit the parent's entire footprint for the child, so
   it is the first API to go unusable (the paper's E6 knot, here as a
   pressure curve); vfork borrows the parent's space and spawn commits
   only the fresh image, so both survive long after fork has died.

   A second table exercises the fault-injection + retry half of the
   machinery: an injected transient EAGAIN kills a bare spawn but is
   absorbed by the bounded-backoff retry policy, because ksim's
   error paths roll back and report errnos synchronously. *)

let phys_pages = 65_536 (* 256 MiB machine *)
let page = Vmem.Addr.page_size

type api = Fork | Vfork | Spawn

let api_name = function Fork -> "fork" | Vfork -> "vfork" | Spawn -> "spawn"

(* The trace span name each API's creation syscall ends with. *)
let span_name = function
  | Fork -> "fork"
  | Vfork -> "vfork"
  | Spawn -> "posix_spawn"

let create_once = function
  | Fork -> Ksim.Api.fork ~child:(fun () -> Ksim.Api.exit 0)
  | Vfork -> Ksim.Api.vfork ~child:(fun () -> Ksim.Api.exit 0)
  | Spawn -> Ksim.Api.spawn "/bin/true"

let config =
  {
    Ksim.Kernel.default_config with
    Ksim.Kernel.phys_pages;
    commit_policy = Vmem.Frame.Strict;
    aslr = false;
    trace_capacity = Some 16_384;
  }

let ok_or_die what = function
  | Ok v -> v
  | Error e -> invalid_arg ("Exp_pressure: " ^ what ^ ": " ^ Ksim.Errno.to_string e)

(* One boot per (footprint fraction, api): the parent maps and touches
   [fraction] of physical memory, then attempts [attempts] creations.
   Every attempt's latency and errno land in the trace; failures leave
   the parent intact (that is the rollback invariant), so attempt i+1
   measures the same machine state as attempt i. *)
let pressure_point ~attempts ~fraction api =
  let t, _outcome =
    Sim_driver.boot_scenario ~config (fun () ->
        let len = page * int_of_float (fraction *. float_of_int phys_pages) in
        if len > 0 then begin
          let addr = ok_or_die "mmap" (Ksim.Api.mmap ~len ~perm:Vmem.Perm.rw) in
          ignore (ok_or_die "touch" (Ksim.Api.touch ~addr ~len))
        end;
        for _ = 1 to attempts do
          match create_once api with
          | Ok pid -> ignore (ok_or_die "wait" (Ksim.Api.wait_for pid))
          | Error _ -> ()
        done)
  in
  let ends = Sim_driver.end_spans t ~what:(span_name api) ~pid:(( = ) 1) in
  let ok_ns = Sim_driver.ok_ns ends in
  let first_errno =
    List.find_map
      (fun (e : Ksim.Trace.event) ->
        match e.Ksim.Trace.outcome with
        | Some (Ksim.Trace.Err errno) -> Some errno
        | Some Ksim.Trace.Ok_result | None -> None)
      ends
  in
  (List.length ok_ns, ok_ns, first_errno)

(* The retry demonstration: the schedule fails the first pb_create, so a
   bare builder spawn dies with EAGAIN while the retrying one backs off
   (in simulated time) and succeeds on the second attempt. *)
let retry_demo ~retry =
  let fault =
    {
      Ksim.Fault.seed = 7;
      triggers =
        [
          Ksim.Fault.Syscall_nth
            { kind = "pb_create"; nth = 1; errno = Ksim.Errno.EAGAIN };
        ];
    }
  in
  let config = { config with Ksim.Kernel.fault = Some fault } in
  let result = ref (Error Ksim.Errno.EINVAL) in
  let t, _ =
    Sim_driver.boot_scenario ~config (fun () ->
        let r =
          if retry then Procbuilder.spawn_retrying "/bin/true"
          else Procbuilder.spawn_minimal "/bin/true"
        in
        result := r;
        match r with
        | Ok pid -> ignore (Ksim.Api.wait_for pid)
        | Error _ -> ())
  in
  let injected =
    match Ksim.Kernel.fault t with
    | Some fi -> Ksim.Fault.total_injected fi
    | None -> 0
  in
  (!result, injected)

let run ~quick =
  let fractions =
    if quick then [ 0.30; 0.60 ]
    else [ 0.0; 0.30; 0.45; 0.55; 0.70; 0.90 ]
  in
  let attempts = if quick then 8 else 32 in
  let table =
    Metrics.Table.create
      [ "footprint"; "api"; "success"; "p50"; "p99"; "give-up errno" ]
  in
  let points =
    Workload.Par.map
      (fun (fraction, api) ->
        let ok, ok_ns, errno = pressure_point ~attempts ~fraction api in
        (fraction, api, ok, ok_ns, errno))
      (List.concat_map
         (fun f -> List.map (fun api -> (f, api)) [ Fork; Vfork; Spawn ])
         fractions)
  in
  List.iter
    (fun (fraction, api, ok, ok_ns, errno) ->
      let stats =
        if ok_ns = [] then None else Some (Metrics.Stats.of_list ok_ns)
      in
      let pct p =
        match stats with None -> "-" | Some s -> Metrics.Units.ns (p s)
      in
      Metrics.Table.add_row table
        [
          Metrics.Units.percent fraction;
          api_name api;
          Printf.sprintf "%d/%d" ok attempts;
          pct (fun s -> s.Metrics.Stats.p50);
          pct (fun s -> s.Metrics.Stats.p99);
          (match errno with
          | Some e -> Ksim.Errno.to_string e
          | None -> "-");
        ])
    points;
  let retry_table =
    Metrics.Table.create [ "caller"; "result"; "injected faults" ]
  in
  List.iter
    (fun retry ->
      let result, injected = retry_demo ~retry in
      Metrics.Table.add_row retry_table
        [
          (if retry then "builder + retry (backoff in sim time)"
           else "builder, no retry");
          (match result with
          | Ok pid -> Printf.sprintf "ok (pid %d)" pid
          | Error e -> Ksim.Errno.to_string e);
          string_of_int injected;
        ])
    [ false; true ];
  let data =
    Metrics.Json.arr
      (List.map
         (fun (fraction, api, ok, ok_ns, _) ->
           Metrics.Json.obj
             ([
                ("fraction", Metrics.Json.num fraction);
                ("api", Metrics.Json.str (api_name api));
                ("ok", Metrics.Json.int ok);
                ("attempts", Metrics.Json.int attempts);
              ]
             @
             if ok_ns = [] then []
             else
               [ ("latency", Metrics.Stats.to_json (Metrics.Stats.of_list ok_ns)) ]))
         points)
  in
  Report.make ~id:"E13" ~title:"process creation under memory pressure"
    [
      Report.Table
        {
          caption =
            Printf.sprintf
              "256 MiB machine, strict commit; parent touches the given \
               footprint then attempts %d creations (children exit \
               immediately; vfork latency includes the parent's blocked \
               time)"
              attempts;
          table;
        };
      Report.Table
        {
          caption =
            "injected transient EAGAIN on the first pb_create (seed 7): \
             rollback keeps the machine clean, synchronous errnos make the \
             retry safe";
          table = retry_table;
        };
      Report.Note
        "fork is the first API the pressure kills: strict accounting must \
         reserve the parent's whole footprint again, so fork returns ENOMEM \
         once the parent passes half of memory, while vfork (borrowed \
         address space) and spawn (fresh image only) keep succeeding at \
         unchanged latency. The failure is also the cheapest syscall on the \
         table -- refusing at commit time costs almost nothing, which is \
         exactly why callers that never check fork's return value end up \
         relying on overcommit instead (E6).";
      Report.Data { name = "pressure-points"; json = data };
    ]

let experiment =
  {
    Report.exp_id = "E13";
    exp_title = "process creation under memory pressure";
    paper_claim =
      "under strict commit accounting fork stops working once the parent's \
       footprint passes half of memory, long before vfork or spawn feel any \
       pressure; spawn-style creation reports the failure synchronously, so \
       bounded retry policies are actually writable";
    exp_kind = Report.Sim;
    run = (fun ~quick -> run ~quick);
  }
