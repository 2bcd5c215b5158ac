(* Host cost per doubling of what a workload scales.

   Each row boots a machine whose size is one count [n] (parked
   readers, served connections, created threads, lazy image pages) and
   measures the host words the boot allocates. Words are deterministic for a fixed input
   and compiler, so tier-1 can bound the growth tightly: a boot at 2n
   may allocate at most 2.2x the words of a boot at n. A cost that is
   linear in n, plus a fixed part, stays under 2; one that visits every
   parked thread after every scheduling round grows about 4x. One more
   row scales a limit, not a count: 16 forks under an fd limit of n
   must cost the same at every n, within 1.1x per doubling, counting
   the words that skip the minor heap too.

   [test_scaling.exe wall] is the CI perf job's wall-clock check of the
   parked axes and the lazy-page axis: for each, it doubles n until the
   median of 3 boots takes 50 ms, then prints the ratio of the medians
   at 2n and n, and fails above 3x. *)

let ok what = function
  | Ok v -> v
  | Error e -> failwith (Format.asprintf "%s: %a" what Ksim.Errno.pp e)

let yields k =
  for _ = 1 to k do
    Ksim.Api.yield ()
  done

(* n readers parked on one pipe; init writes a byte at a time, and each
   byte wakes one of them. *)
let herd n () =
  let r, w = ok "pipe" (Ksim.Api.pipe ()) in
  for _ = 1 to n do
    ignore (ok "thread" (Ksim.Api.thread_create (fun () -> ignore (Ksim.Api.read r 1))))
  done;
  for _ = 1 to n do
    ignore (ok "write" (Ksim.Api.write w "x"));
    Ksim.Api.yield ()
  done

(* n clients connect, send a request and park reading the answer; init
   accepts and answers them one at a time. *)
let served n () =
  let port = 80 in
  let l = ok "socket" (Ksim.Api.socket ()) in
  ok "bind" (Ksim.Api.bind l ~port);
  ok "listen" (Ksim.Api.listen l ~backlog:(n + 1));
  for _ = 1 to n do
    ignore
      (ok "thread"
         (Ksim.Api.thread_create (fun () ->
              let c = ok "socket" (Ksim.Api.socket ()) in
              ok "connect" (Ksim.Api.connect c ~port);
              ignore (ok "send" (Ksim.Api.write c "q"));
              ignore (ok "answer" (Ksim.Api.read c 1));
              ignore (Ksim.Api.close c))))
  done;
  for _ = 1 to n do
    let c = ok "accept" (Ksim.Api.accept l) in
    ignore (ok "request" (Ksim.Api.read c 1));
    ignore (ok "reply" (Ksim.Api.write c "a"));
    ignore (Ksim.Api.close c)
  done;
  yields 2

(* n threads created one after another; each returns at once. *)
let threads n () =
  for _ = 1 to n do
    ignore (ok "thread" (Ksim.Api.thread_create (fun () -> ())))
  done

(* A demand-paged worker whose n-page data image exec maps lazily. It
   touches the image in one sequential touch (stride 1), or one page in
   every [stride], a touch each: with readahead 8 and stride 4, two
   touches in three land on a page an earlier request left prefetched. *)
let lazy_worker ~stride n =
  let page = Vmem.Addr.page_size in
  let data = Ksim.Kernel.image_base + (64 * 1024) in
  Ksim.Program.make ~text_kib:64 ~data_kib:(n * page / 1024)
    ~name:(Printf.sprintf "/lazy-%d" stride)
    (fun ~argv:_ () ->
      if stride = 1 then ignore (ok "touch" (Ksim.Api.touch ~addr:data ~len:(n * page)))
      else
        for k = 0 to (n - 1) / stride do
          ignore (ok "touch" (Ksim.Api.touch ~addr:(data + (k * stride * page)) ~len:page))
        done)

let lazy_strides = [ 1; 4 ]

(* init forks 16 children that exit at once, reaping each before the
   next. Here n is the machine's fd limit, not a count of anything the
   processes hold: each table holds init's three console fds. *)
let forked_under_limit _ () =
  for _ = 1 to 16 do
    let pid = ok "fork" (Ksim.Api.fork ~child:(fun () -> Ksim.Api.exit 0)) in
    match ok "wait" (Ksim.Api.wait_for pid) with
    | Ksim.Types.Exited 0 -> ()
    | st -> failwith (Format.asprintf "child: %a" Ksim.Types.pp_status st)
  done

(* init spawns each lazy worker in turn and waits for it. *)
let lazy_pages _ () =
  List.iter
    (fun stride ->
      let pid = ok "spawn" (Ksim.Api.spawn (Printf.sprintf "/lazy-%d" stride)) in
      match ok "wait" (Ksim.Api.wait_for pid) with
      | Ksim.Types.Exited 0 -> ()
      | st -> failwith (Format.asprintf "lazy worker: %a" Ksim.Types.pp_status st))
    lazy_strides

let boot ?(tune = Fun.id) ?(programs = []) body n =
  let config =
    tune
      {
        Ksim.Kernel.default_config with
        Ksim.Kernel.aslr = false;
        max_fds = (4 * n) + 16;
      }
  in
  let init = Ksim.Program.make ~name:"/sbin/init" (fun ~argv:_ -> body n) in
  match Ksim.Kernel.boot ~config ~programs:(init :: programs) "/sbin/init" with
  | Ok (_, Ksim.Kernel.All_exited) -> ()
  | Ok (_, o) -> failwith (Format.asprintf "outcome %a" Ksim.Kernel.pp_outcome o)
  | Error _ -> failwith "boot failed"

let words f =
  let w0 = Gc.minor_words () in
  f ();
  Gc.minor_words () -. w0

(* Every word allocated, including the blocks above 256 words that skip
   the minor heap: minor plus major words, less the promoted ones that
   both count. *)
let all_words f =
  let total () =
    Gc.minor ();
    let s = Gc.quick_stat () in
    s.Gc.minor_words +. s.Gc.major_words -. s.Gc.promoted_words
  in
  let w0 = total () in
  f ();
  total () -. w0

(* Demand paging with the pager readahead of the demand-warm workload,
   and memory for both workers' images. *)
let lazy_image n =
  boot
    ~tune:(fun c ->
      {
        c with
        Ksim.Kernel.demand_paging = true;
        pager_readahead = 8;
        phys_pages = 65_536 + (2 * n);
      })
    ~programs:(List.map (fun stride -> lazy_worker ~stride n) lazy_strides)
    lazy_pages n

(* 16 forks under an fd limit of n. *)
let fd_limit n =
  boot ~tune:(fun c -> { c with Ksim.Kernel.max_fds = n }) forked_under_limit n

(* (name, boot at size n, whether the CI wall check times it) *)
let rows =
  [
    ("readers parked on one pipe, woken a byte at a time", boot herd, true);
    ("connections served one at a time by one accept loop", boot served, true);
    ("threads created, then returning", boot threads, false);
    ("lazy image pages touched sequentially and every fourth page", lazy_image, true);
  ]

let n = 1000

let test_words ?(count = words) ?(bound = 2.2) run () =
  let w1 = count (fun () -> run n) in
  let w2 = count (fun () -> run (2 * n)) in
  let ratio = w2 /. w1 in
  if ratio > bound then
    Alcotest.failf "words grew %.2fx from n=%d (%.0f) to 2n (%.0f)" ratio n w1 w2

(* Median of 3 boots' wall time, each from a compacted heap. *)
let wall run n =
  let once () =
    Gc.compact ();
    let t0 = Unix.gettimeofday () in
    run n;
    Unix.gettimeofday () -. t0
  in
  match List.sort compare [ once (); once (); once () ] with
  | [ _; m; _ ] -> m
  | _ -> assert false

let wall_check () =
  let bad = ref false in
  List.iter
    (fun (name, run, timed) ->
      if timed then begin
        let rec size n =
          let t = wall run n in
          if t >= 0.05 then (n, t) else size (2 * n)
        in
        let n, t1 = size 1000 in
        let t2 = wall run (2 * n) in
        let ratio = t2 /. t1 in
        Printf.printf "%s: n=%d %.3f s, 2n %.3f s, x%.2f per doubling\n" name n t1 t2 ratio;
        if ratio > 3.0 then bad := true
      end)
    rows;
  if !bad then exit 1

let () =
  match Sys.argv with
  | [| _; "wall" |] -> wall_check ()
  | _ ->
    Alcotest.run "scaling"
      [
        ( "words per doubling",
          List.map (fun (name, run, _) -> Alcotest.test_case name `Quick (test_words run)) rows
          (* a table sized by the limit would give each fork an n-slot
             array, which skips the minor heap *)
          @ [
              Alcotest.test_case "children forked and reaped under an fd limit of n" `Quick
                (test_words ~count:all_words ~bound:1.1 fd_limit);
            ] );
      ]
