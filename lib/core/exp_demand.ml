(* E18 — demand paging: lazy creation, first-touch warm-up, and the
   overcommit reckoning. Eager creation pays for the child's memory up
   front — fork walks the parent's page tables, spawn loads the whole
   exec image — so cold-start latency grows with the footprint. A
   demand-paged kernel installs lazy mappings in O(segments) and pulls
   pages through a user-mode pager on first touch, making cold start
   flat across a 256x image range; the bill moves to the warm-up phase,
   proportional to the pages actually touched. The same deferral shows
   up in commit accounting: the [Demand] policy admits workloads Strict
   refuses, paying for it with OOM kills when first touches outrun
   physical memory. *)

let ok_or_die what = function
  | Ok v -> v
  | Error e ->
    invalid_arg ("Exp_demand: " ^ what ^ ": " ^ Ksim.Errno.to_string e)

type style = Eager_fork | Eager_spawn | Lazy_exec | Lazy_zygote

let styles = [ Eager_fork; Eager_spawn; Lazy_exec; Lazy_zygote ]

let style_name = function
  | Eager_fork -> "eager-fork"
  | Eager_spawn -> "eager-spawn"
  | Lazy_exec -> "lazy-exec"
  | Lazy_zygote -> "lazy-zygote"

let demand_of = function
  | Eager_fork | Eager_spawn -> false
  | Lazy_exec | Lazy_zygote -> true

(* The trace span each style's creation syscall ends with. *)
let span_of = function
  | Eager_fork -> "fork"
  | Eager_spawn | Lazy_exec -> "posix_spawn"
  | Lazy_zygote -> "template_spawn"

let mib = 1024 * 1024
let page = Vmem.Addr.page_size

(* The workload image for the spawn styles: a small text segment plus a
   data segment holding the whole footprint (think a large linked-in
   model). The worker touches the first [argv] bytes of its data — under
   eager exec those pages were loaded at map time; under demand paging
   each first touch is an image-backed major fault. *)
let worker_text_kib = 64
let worker_data_base = Ksim.Kernel.image_base + (worker_text_kib * 1024)

let worker_prog ~footprint_mib =
  Ksim.Program.make ~name:"/worker" ~text_kib:worker_text_kib
    ~data_kib:(footprint_mib * 1024) (fun ~argv () ->
      (match argv with
      | [ len ] ->
        let len = int_of_string len in
        if len > 0 then
          ignore
            (ok_or_die "worker touch"
               (Ksim.Api.touch ~addr:worker_data_base ~len))
      | _ -> ());
      Ksim.Api.exit 0)

(* init's own image geometry (Program.make defaults), needed to warm it
   before a freeze under demand paging. *)
let init_text_len = 64 * 1024
let init_data_base = Ksim.Kernel.image_base + init_text_len
let init_data_len = 16 * 1024

let config ~demand ~readahead ~footprint_mib =
  {
    (Sim_driver.config_for ~heap_mib:footprint_mib) with
    Ksim.Kernel.trace_capacity = Some 16_384;
    demand_paging = demand;
    pager_readahead = readahead;
  }

(* Map the footprint as one anonymous region and write-touch all of it —
   the warm master the fork and zygote styles inherit from. *)
let map_and_touch ~footprint_mib =
  let len = footprint_mib * mib in
  let addr = ok_or_die "mmap" (Ksim.Api.mmap ~len ~perm:Vmem.Perm.rw) in
  ignore (ok_or_die "master touch" (Ksim.Api.touch ~addr ~len));
  addr

(* Resolve init's own lazy image pages (data by write-touch, text by
   reading) so its space can be sealed: freeze refuses sources with
   unresolved pager-backed pages. *)
let warm_own_image () =
  ignore
    (ok_or_die "warm data"
       (Ksim.Api.touch ~addr:init_data_base ~len:init_data_len));
  ignore
    (ok_or_die "warm text"
       (Ksim.Api.mem_read ~addr:Ksim.Kernel.image_base ~len:init_text_len))

let body ~style ~footprint_mib ~touch_len ~n () =
  let child_touch addr () =
    if touch_len > 0 then
      ignore (ok_or_die "child touch" (Ksim.Api.touch ~addr ~len:touch_len));
    Ksim.Api.exit 0
  in
  match style with
  | Eager_spawn | Lazy_exec ->
    for _ = 1 to n do
      let pid =
        ok_or_die "spawn"
          (Ksim.Api.spawn "/worker" ~argv:[ string_of_int touch_len ])
      in
      ignore (ok_or_die "wait" (Ksim.Api.wait_for pid))
    done
  | Eager_fork ->
    let addr = map_and_touch ~footprint_mib in
    for _ = 1 to n do
      let pid = ok_or_die "fork" (Ksim.Api.fork ~child:(child_touch addr)) in
      ignore (ok_or_die "wait" (Ksim.Api.wait_for pid))
    done
  | Lazy_zygote ->
    let addr = map_and_touch ~footprint_mib in
    warm_own_image ();
    let tpl = ok_or_die "freeze" (Ksim.Api.freeze ()) in
    for _ = 1 to n do
      let pid =
        ok_or_die "spawn_from_template"
          (Ksim.Api.spawn_from_template tpl ~child:(child_touch addr))
      in
      ignore (ok_or_die "wait" (Ksim.Api.wait_for pid))
    done

type point = {
  style : style;
  fmib : int;
  frac : float;  (** fraction of the footprint the child touches *)
  create_ns : Metrics.Stats.t;  (** creation-syscall span latencies *)
  warm_ns : Metrics.Stats.t;
      (** creation + touch span per child: time to first N touches *)
  majors : int;
  minors : int;
  fetched : int;
  ra_hits : int;
  oom_kills : int;
}

let harvest t ~style ~fmib ~frac ~touched =
  let spans what ~pid = Sim_driver.ok_ns (Sim_driver.end_spans t ~what ~pid) in
  let create = spans (span_of style) ~pid:(( = ) 1) in
  let touch = if touched then spans "touch" ~pid:(( <> ) 1) else [] in
  let warm =
    if List.length touch = List.length create then
      List.map2 ( +. ) create touch
    else create
  in
  let g = Ksim.Kstat.global (Ksim.Kernel.kstat t) in
  {
    style;
    fmib;
    frac;
    create_ns = Metrics.Stats.of_list create;
    warm_ns = Metrics.Stats.of_list warm;
    majors = g.Ksim.Kstat.major_faults;
    minors = g.Ksim.Kstat.minor_faults;
    fetched = g.Ksim.Kstat.pages_fetched;
    ra_hits = g.Ksim.Kstat.readahead_hits;
    oom_kills = g.Ksim.Kstat.oom_kills;
  }

let run_point ~n ~readahead ~footprint_mib ~frac style =
  let total_pages = footprint_mib * mib / page in
  let touch_pages =
    if frac <= 0.0 then 0
    else max 1 (int_of_float (frac *. float_of_int total_pages))
  in
  let touch_len = touch_pages * page in
  let config = config ~demand:(demand_of style) ~readahead ~footprint_mib in
  let t, _ =
    Sim_driver.boot_scenario ~config
      ~programs:[ worker_prog ~footprint_mib ]
      (body ~style ~footprint_mib ~touch_len ~n)
  in
  harvest t ~style ~fmib:footprint_mib ~frac ~touched:(touch_pages > 0)

(* ------------------------------------------------------------------ *)
(* Overcommit-policy sweep: E13-style pressure, k workers each
   reserving more than their share and touching part of it. Strict
   refuses admission up front; Overcommit admits everyone and lets the
   unlucky toucher crash with ENOMEM; Demand admits everyone and
   resolves the pressure by OOM-killing victims. Workers encode their
   fate in the exit status; init tallies them onto the console. *)

let pressure_phys_mib = 256
let pressure_workers = 6

let pressure_body ~map_len ~touch_len () =
  (* the scheduler runs a thread until it blocks, so the workers yield
     between chunks: reservations and touched pages accumulate across
     all of them concurrently — the E13-style pressure profile *)
  let worker () =
    match Ksim.Api.mmap ~len:map_len ~perm:Vmem.Perm.rw with
    | Error _ -> Ksim.Api.exit 2 (* admission refused *)
    | Ok addr ->
      Ksim.Api.yield ();
      let chunk = max page (touch_len / 8) in
      let rec go off =
        if off >= touch_len then Ksim.Api.exit 0
        else
          match
            Ksim.Api.touch ~addr:(addr + off)
              ~len:(min chunk (touch_len - off))
          with
          | Ok _ ->
            Ksim.Api.yield ();
            go (off + chunk)
          | Error _ -> Ksim.Api.exit 3 (* ENOMEM at first touch *)
      in
      go 0
  in
  let pids =
    List.init pressure_workers (fun _ ->
        ok_or_die "pressure fork" (Ksim.Api.fork ~child:worker))
  in
  let ok = ref 0 and refused = ref 0 and faulted = ref 0 and killed = ref 0 in
  List.iter
    (fun pid ->
      match ok_or_die "pressure wait" (Ksim.Api.wait_for pid) with
      | Ksim.Types.Exited 0 -> incr ok
      | Ksim.Types.Exited 2 -> incr refused
      | Ksim.Types.Exited 3 -> incr faulted
      | Ksim.Types.Exited _ -> ()
      | Ksim.Types.Killed _ -> incr killed)
    pids;
  Ksim.Api.print
    (Printf.sprintf "completed=%d refused=%d faulted=%d killed=%d\n" !ok
       !refused !faulted !killed)

let pressure_point policy =
  let config =
    {
      Ksim.Kernel.default_config with
      Ksim.Kernel.phys_pages = pressure_phys_mib * mib / page;
      commit_policy = policy;
      aslr = false;
      demand_paging = (policy = Vmem.Frame.Demand);
    }
  in
  (* each worker reserves ~40% of physical memory but touches only
     5/8 of it: strict admission can back at most two of the six
     reservations, yet the actual footprints (6 x 25%) only modestly
     exceed the machine — the regime where Demand's late reckoning
     beats Strict's early refusal *)
  let map_len = pressure_phys_mib * mib * 2 / 5 in
  let touch_len = map_len * 5 / 8 in
  let t, _ =
    Sim_driver.boot_scenario ~config (pressure_body ~map_len ~touch_len)
  in
  let g = Ksim.Kstat.global (Ksim.Kernel.kstat t) in
  (Ksim.Kernel.console t, g.Ksim.Kstat.oom_kills)

let policy_name = function
  | Vmem.Frame.Strict -> "strict"
  | Vmem.Frame.Overcommit -> "overcommit"
  | Vmem.Frame.Demand -> "demand"

(* ------------------------------------------------------------------ *)

let pct f = Printf.sprintf "%.0f%%" (100.0 *. f)

let run ~quick =
  let footprints = if quick then [ 16; 256 ] else [ 16; 64; 256; 1024; 4096 ] in
  let fracs = if quick then [ 0.01; 1.0 ] else [ 0.01; 0.1; 0.5; 1.0 ] in
  let n = if quick then 4 else 8 in
  let warm_frac = List.fold_left max 0.0 fracs in
  let points =
    Workload.Par.map
      (fun (fmib, style, frac) ->
        run_point ~n ~readahead:0 ~footprint_mib:fmib ~frac style)
      (List.concat_map
         (fun fmib ->
           List.concat_map
             (fun style -> List.map (fun frac -> (fmib, style, frac)) fracs)
             styles)
         footprints)
  in
  let find ~fmib ~style ~frac =
    List.find
      (fun p -> p.fmib = fmib && p.style = style && p.frac = frac)
      points
  in
  (* cold start: creation-syscall p50 across image sizes *)
  let cold_table =
    Metrics.Table.create ([ "footprint" ] @ List.map style_name styles)
  in
  List.iter
    (fun fmib ->
      Metrics.Table.add_row cold_table
        (Printf.sprintf "%d MiB" fmib
        :: List.map
             (fun s ->
               let p = find ~fmib ~style:s ~frac:warm_frac in
               Metrics.Units.ns p.create_ns.Metrics.Stats.p50)
             styles))
    footprints;
  (* warm-up: creation + first-N-touches at the largest footprint *)
  let big = List.fold_left max 0 footprints in
  let warm_table =
    Metrics.Table.create
      [ "touched"; "api"; "cold p50"; "warm p50"; "major"; "minor" ]
  in
  List.iter
    (fun frac ->
      List.iter
        (fun style ->
          let p = find ~fmib:big ~style ~frac in
          Metrics.Table.add_row warm_table
            [
              pct frac;
              style_name style;
              Metrics.Units.ns p.create_ns.Metrics.Stats.p50;
              Metrics.Units.ns p.warm_ns.Metrics.Stats.p50;
              string_of_int p.majors;
              string_of_int p.minors;
            ])
        styles)
    fracs;
  let warmup_fig =
    Metrics.Series.figure ~xlog:true ~ylog:true
      ~title:
        (Printf.sprintf "time to first touches, %d MiB footprint" big)
      ~xlabel:"fraction touched" ~ylabel:"create+touch p50 (sim ns)"
      (List.map
         (fun style ->
           {
             Metrics.Series.label = style_name style;
             points =
               List.map
                 (fun frac ->
                   let p = find ~fmib:big ~style ~frac in
                   (frac, p.warm_ns.Metrics.Stats.p50))
                 fracs;
           })
         styles)
  in
  (* readahead: same lazy-exec warm-up, batched pager pulls *)
  let ra_mib = min (List.fold_left max 0 footprints) 256 in
  let readaheads = [ 0; 8; 64 ] in
  let ra_points =
    Workload.Par.map
      (fun ra ->
        ( ra,
          run_point ~n ~readahead:ra ~footprint_mib:ra_mib ~frac:1.0 Lazy_exec
        ))
      readaheads
  in
  let ra_table =
    Metrics.Table.create
      [
        "readahead"; "warm p50"; "pager requests"; "pages fetched";
        "readahead hits";
      ]
  in
  List.iter
    (fun (ra, p) ->
      Metrics.Table.add_row ra_table
        [
          string_of_int ra;
          Metrics.Units.ns p.warm_ns.Metrics.Stats.p50;
          string_of_int p.majors;
          string_of_int p.fetched;
          string_of_int p.ra_hits;
        ])
    ra_points;
  (* overcommit policies under pressure *)
  let policies = [ Vmem.Frame.Strict; Vmem.Frame.Overcommit; Vmem.Frame.Demand ] in
  let pressure = List.map (fun p -> (p, pressure_point p)) policies in
  let pressure_table =
    Metrics.Table.create [ "policy"; "worker fates"; "oom kills" ]
  in
  List.iter
    (fun (policy, (console, kills)) ->
      Metrics.Table.add_row pressure_table
        [ policy_name policy; String.trim console; string_of_int kills ])
    pressure;
  let data =
    Metrics.Json.obj
      [
        ( "points",
          Metrics.Json.arr
            (List.map
               (fun p ->
                 Metrics.Json.obj
                   [
                     ("mib", Metrics.Json.int p.fmib);
                     ("api", Metrics.Json.str (style_name p.style));
                     ("frac", Metrics.Json.num p.frac);
                     ("create", Metrics.Stats.to_json p.create_ns);
                     ("warm", Metrics.Stats.to_json p.warm_ns);
                     ("major_faults", Metrics.Json.int p.majors);
                     ("minor_faults", Metrics.Json.int p.minors);
                     ("pages_fetched", Metrics.Json.int p.fetched);
                     ("readahead_hits", Metrics.Json.int p.ra_hits);
                   ])
               points) );
        ( "readahead",
          Metrics.Json.arr
            (List.map
               (fun (ra, p) ->
                 Metrics.Json.obj
                   [
                     ("readahead", Metrics.Json.int ra);
                     ("warm", Metrics.Stats.to_json p.warm_ns);
                     ("pager_requests", Metrics.Json.int p.majors);
                     ("pages_fetched", Metrics.Json.int p.fetched);
                     ("readahead_hits", Metrics.Json.int p.ra_hits);
                   ])
               ra_points) );
        ( "pressure",
          Metrics.Json.arr
            (List.map
               (fun (policy, (console, kills)) ->
                 Metrics.Json.obj
                   [
                     ("policy", Metrics.Json.str (policy_name policy));
                     ("fates", Metrics.Json.str (String.trim console));
                     ("oom_kills", Metrics.Json.int kills);
                   ])
               pressure) );
      ]
  in
  Report.make ~id:"E18" ~title:"demand paging: lazy creation and warm-up"
    [
      Report.Table
        {
          caption =
            Printf.sprintf
              "cold start: creation-syscall p50 over %d creations (child \
               touches %s of the footprint afterwards)"
              n (pct warm_frac);
          table = cold_table;
        };
      Report.Table
        {
          caption =
            Printf.sprintf
              "warm-up at %d MiB: creation + touching the given fraction"
              big;
          table = warm_table;
        };
      Report.Figure warmup_fig;
      Report.Table
        {
          caption =
            Printf.sprintf
              "pager readahead (lazy-exec, %d MiB, 100%% touched): batching \
               amortises the per-fault pager request"
              ra_mib;
          table = ra_table;
        };
      Report.Table
        {
          caption =
            Printf.sprintf
              "commit policies under pressure: %d workers on a %d MiB \
               machine, each reserving 40%% of it and touching 25%%"
              pressure_workers pressure_phys_mib;
          table = pressure_table;
        };
      Report.Note
        "eager creation pays the footprint up front: fork's cold start grows \
         with the parent's page tables and eager spawn's with the exec \
         image, while lazy exec and the lazy zygote stay flat across a 256x \
         range -- the cost moves to warm-up, where each first touch is a \
         major fault through the user-mode pager, proportional to the pages \
         actually used. Readahead trades per-fault pager requests for \
         speculative pulls. The same deferral governs admission: Strict \
         refuses reservations that cannot be backed, Overcommit admits them \
         and lets a toucher crash, Demand admits them and reconciles at \
         first touch by OOM-killing the largest resident process -- late, \
         targeted failure instead of early, spurious refusal.";
      Report.Data { name = "demand-points"; json = data };
    ]

let experiment =
  {
    Report.exp_id = "E18";
    exp_title = "demand paging: lazy creation and warm-up";
    paper_claim =
      "demand paging decouples creation latency from footprint: lazy \
       exec/zygote cold start is constant where fork and eager spawn grow \
       linearly, at the price of first-touch major faults during warm-up \
       and an overcommit policy that must reconcile memory at touch time";
    exp_kind = Report.Sim;
    run = (fun ~quick -> run ~quick);
  }
