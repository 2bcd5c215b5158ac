(* fork-cow: the paper's headline cost. A warm parent with a 256 MiB heap
   over eight VMAs forks in a closed loop on the SMP kernel (4 simulated
   CPUs). Each child either execs a small program (fork+exec) or
   write-touches a seed-drawn 0.1-20% of the heap, as one contiguous run
   or as scattered chunks, then exits; the parent waits for it. An op is
   one fork through its wait. The parent is single-threaded, so no
   remote CPU caches its space: forks send no shootdown IPIs, and the
   SMP scheduler runs one slice per batch, which keeps each kernel
   segment attributable to the one syscall that entered it. *)

let name = "fork-cow"
let page = Vmem.Addr.page_size
let n_vmas = 8
let vma_pages = 8192
let heap_pages = n_vmas * vma_pages
let n_ops = 1000
let exec_share = 4 (* one op in four execs *)
let scatter_chunks = 32

(* A touch run: VMA index, first page in it, page count. *)
type op = Exec | Touch of (int * int * int) array

type plan = op array

(* Split a contiguous heap-page range at VMA boundaries. *)
let split_runs first pages =
  let rec go p left acc =
    if left = 0 then Array.of_list (List.rev acc)
    else
      let v = p / vma_pages and off = p mod vma_pages in
      let n = min left (vma_pages - off) in
      go (p + n) (left - n) ((v, off, n) :: acc)
  in
  go first pages []

let plan ~seed : plan =
  let rng = Gen.create ~seed in
  let execs = Gen.exactly rng n_ops (n_ops / exec_share) in
  let n_touch = n_ops - (n_ops / exec_share) in
  let fracs = Gen.strata rng n_touch ~lo:0.001 ~hi:0.2 in
  let scattered = Gen.balanced rng fracs 2 in
  let next = ref 0 in
  Array.init n_ops (fun i ->
      if execs.(i) then Exec
      else
        let j = !next in
        incr next;
        let pages = max 1 (int_of_float (fracs.(j) *. float_of_int heap_pages)) in
        if scattered.(j) = 0 then
          let chunks = min pages scatter_chunks in
          Touch
            (Array.init chunks (fun c ->
                 let len = (pages / chunks) + if c < pages mod chunks then 1 else 0 in
                 (Gen.int rng ~bound:n_vmas, Gen.int rng ~bound:(vma_pages - len + 1), len)))
        else Touch (split_runs (Gen.int rng ~bound:(heap_pages - pages + 1)) pages))

let small = Call.program ~text_kib:16 ~data_kib:16 "/bin/small" (fun _ -> Call.exit 0)

let config =
  {
    Ksim.Kernel.default_config with
    Ksim.Kernel.phys_pages = (2 * heap_pages) + 65536;
    commit_policy = Vmem.Frame.Overcommit;
    aslr = false;
    sched = `Fifo;
    smp = true;
    cpus = 4;
  }

let child bases = function
  | Exec ->
    fun () ->
      ignore (Call.exec "/bin/small");
      Call.exit 97
  | Touch runs ->
    fun () ->
      Array.iter
        (fun (v, p, n) ->
          match Call.touch ~addr:(bases.(v) + (p * page)) ~len:(n * page) with
          | Ok _ -> ()
          | Error _ -> Call.exit 98)
        runs;
      Call.exit 0

let init (plan : plan) (o : Batch.ops) _t =
  let len = vma_pages * page in
  let bases =
    Array.init n_vmas (fun _ ->
        match Call.mmap ~len with
        | Error _ -> Call.exit 2
        | Ok addr -> (
          match Call.touch ~addr ~len with Ok _ -> addr | Error _ -> Call.exit 3))
  in
  Batch.closed_loop o plan (fun op -> Call.fork ~child:(child bases op));
  Call.exit 0

let run plan =
  let o = Batch.ops n_ops in
  Batch.run ~config ~programs:[ small ] ~ops:o (init plan o)

(* The geometry the vmem replay repeats: the parent's VMAs and, per op,
   the touched heap runs (flat page offsets). *)
let replay plan : Replay.spec =
  {
    Replay.parent = Array.make n_vmas vma_pages;
    ops =
      Array.map
        (function
          | Exec -> { Replay.pages = heap_pages; runs = [||] }
          | Touch runs ->
            {
              Replay.pages = heap_pages;
              runs = Array.map (fun (v, p, n) -> ((v * vma_pages) + p, n)) runs;
            })
        plan;
  }
