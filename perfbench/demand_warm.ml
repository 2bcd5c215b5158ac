(* demand-warm: demand paging with the Demand commit policy and pager
   readahead 8, on enough memory that no OOM kill fires. Ops alternate
   (in seed-shuffled order) between lazy-exec spawns of a worker whose
   data image is seed-drawn from 16-256 MiB and lazy-zygote spawns from a
   frozen warm master. Each child touches a seed-drawn 1-100% of its
   image or of the master heap, sequentially or strided, then exits; the
   parent waits for it. An op is one spawn through its wait. *)

let name = "demand-warm"
let page = Vmem.Addr.page_size
let mib = 1024 * 1024
let n_ops = 1000
let master_mib = 64
let master_pages = master_mib * mib / page
let image_step_mib = 16
let image_sizes = List.init 16 (fun i -> (i + 1) * image_step_mib)
let worker_text_kib = 64
let data_base = Ksim.Kernel.image_base + (worker_text_kib * 1024)
let readahead = 8

(* Strided ops touch runs of [run] pages every [stride] pages: readahead
   8 then pulls the rest of each run plus pages the op skips (stride 16
   and 64) or partly reaches the next run (stride 8). *)
let run = 4
let strides = [| 8; 16; 64 |]

type source = Image of int (* MiB *) | Master
type op = { source : source; pages : int; stride : int }
type plan = op array

let region_pages = function Image m -> m * mib / page | Master -> master_pages

(* Touch fractions are log-stratified; source (image or master) and
   pattern (sequential or strided) are balanced across them, image sizes
   are stratified over the image ops and strides cycle evenly over the
   strided ones. *)
let plan ~seed : plan =
  let rng = Gen.create ~seed in
  let fracs = Gen.log_strata rng n_ops ~lo:0.01 ~hi:1.0 in
  let slot = Gen.balanced rng fracs 4 in
  let n_image = Array.fold_left (fun a s -> if s < 2 then a + 1 else a) 0 slot in
  let sizes = Gen.strata rng n_image ~lo:(float_of_int image_step_mib) ~hi:272.0 in
  let n_strided = Array.fold_left (fun a s -> if s mod 2 = 1 then a + 1 else a) 0 slot in
  let stride_of = Gen.even rng n_strided strides in
  let next_image = ref 0 and next_strided = ref 0 in
  Array.init n_ops (fun i ->
      let source =
        if slot.(i) >= 2 then Master
        else begin
          let m = int_of_float sizes.(!next_image) / image_step_mib * image_step_mib in
          incr next_image;
          Image m
        end
      in
      let region = region_pages source in
      let pages = max 1 (int_of_float (fracs.(i) *. float_of_int region)) in
      let stride =
        if slot.(i) mod 2 = 0 then 1
        else begin
          let s = stride_of.(!next_strided) in
          incr next_strided;
          (* the strided span must fit the region *)
          if pages * s / run <= region then s else 1
        end
      in
      { source; pages; stride })

let worker_name m = Printf.sprintf "/worker-%d" m

(* The runs an op touches: (first page, pages) from the region start. *)
let runs ~pages ~stride =
  if stride = 1 then [| (0, pages) |]
  else
    Array.init ((pages + run - 1) / run) (fun k -> (k * stride, min run (pages - (k * run))))

let touch_pattern ~base ~pages ~stride =
  Array.iter
    (fun (p, n) ->
      match Call.touch ~addr:(base + (p * page)) ~len:(n * page) with
      | Ok _ -> ()
      | Error _ -> Call.exit 98)
    (runs ~pages ~stride);
  Call.exit 0

let worker m =
  Call.program ~text_kib:worker_text_kib ~data_kib:(m * 1024) (worker_name m)
    (function
      | [ pages; stride ] ->
        touch_pattern ~base:data_base ~pages:(int_of_string pages)
          ~stride:(int_of_string stride)
      | _ -> Call.exit 96)

let programs = List.map worker image_sizes

let config =
  {
    Ksim.Kernel.default_config with
    Ksim.Kernel.phys_pages = (3 * master_pages) + (272 * mib / page) + 65536;
    commit_policy = Vmem.Frame.Demand;
    aslr = false;
    sched = `Fifo;
    demand_paging = true;
    pager_readahead = readahead;
  }

(* init's own image (Program.make defaults): warmed before the freeze,
   which refuses sources with unresolved pager-backed pages. *)
let init_text_len = 64 * 1024
let init_data_len = 16 * 1024

(* The master is a forked child of init (which never touches its own
   lazy image, so the master's warmed pages are its own): it maps and
   warms its heap and image, freezes itself and runs the ops. Once it
   has exited, init discards the template, releasing its pinned pages. *)
let master (plan : plan) (o : Batch.ops) tpl () =
  let len = master_pages * page in
  let heap =
    match Call.mmap ~len with
    | Error _ -> Call.exit 2
    | Ok addr -> (
      match Call.touch ~addr ~len with Ok _ -> addr | Error _ -> Call.exit 3)
  in
  (match
     ( Call.touch ~addr:(Ksim.Kernel.image_base + init_text_len) ~len:init_data_len,
       Call.mem_read ~addr:Ksim.Kernel.image_base ~len:init_text_len )
   with
  | Ok _, Ok _ -> ()
  | _ -> Call.exit 4);
  (match Call.freeze () with Ok id -> tpl := id | Error _ -> Call.exit 5);
  Batch.closed_loop o plan (fun op ->
      match op.source with
      | Image m ->
        Call.spawn (worker_name m) ~argv:[ string_of_int op.pages; string_of_int op.stride ]
      | Master ->
        Call.spawn_from_template !tpl ~child:(fun () ->
            touch_pattern ~base:heap ~pages:op.pages ~stride:op.stride));
  Call.exit 0

let init plan o _t =
  let tpl = ref (-1) in
  match Call.fork ~child:(master plan o tpl) with
  | Error _ -> Call.exit 7
  | Ok pid ->
    let st = Call.wait_for pid in
    let discarded = Call.template_discard !tpl in
    if st = Ok (Ksim.Types.Exited 0) && discarded = Ok () then Call.exit 0
    else Call.exit 6

let run plan =
  let o = Batch.ops n_ops in
  Batch.run ~config ~programs ~ops:o (init plan o)

let replay plan : Replay.spec =
  {
    Replay.parent = [| master_pages |];
    ops =
      Array.map
        (fun op ->
          {
            Replay.pages = region_pages op.source;
            runs = runs ~pages:op.pages ~stride:op.stride;
          })
        plan;
  }
