(* Per-layer vmem meters: a workload's memory geometry replayed directly
   on Vmem.Addr_space, with no kernel. Per op, the parent is cloned
   (clone_cow), the op's runs are write-touched in the clone (COW
   breaks) and the clone destroyed; then the same runs are touched in a
   fresh anonymous region (zero fill) and in a fresh lazily mapped image
   region behind a Ksim.Pager (first-touch pager path). Paths a workload
   does not take itself are still replayed on its geometry, so every
   meter is defined on every workload. The gap between the kernel's
   touch segments and these numbers is ksim's overhead on top of vmem. *)

type op = {
  pages : int;  (** size of the op's touch region *)
  runs : (int * int) array;  (** (first page, pages) within the region *)
}

type spec = { parent : int array;  (** parent VMA sizes, pages *) ops : op array }

let max_ops = 200
let readahead = 8
let page = Vmem.Addr.page_size

(* Host time, minor words and units of work of one replayed path. *)
type meter = { mutable s : float; mutable words : float; mutable units : int }

let meter () = { s = 0.0; words = 0.0; units = 0 }

let timed m units f =
  let t0 = Probe.now () and w0 = Gc.minor_words () in
  let r = f () in
  m.s <- m.s +. (Probe.now () -. t0);
  m.words <- m.words +. (Gc.minor_words () -. w0);
  m.units <- m.units + units r;
  r

type result = {
  clone_cow : meter;  (** units: parent PTEs visited *)
  cow_touch : meter;  (** units: pages touched in the clone *)
  zero_touch : meter;  (** units: pages touched in a fresh region *)
  destroy : meter;  (** units: resident pages of the destroyed clone *)
  lazy_touch : meter;  (** units: pages touched in a lazy region *)
}

let ok what = function
  | Ok v -> v
  | Error _ -> failwith ("replay: " ^ what)

let touch_runs space ~base ~limit runs =
  Array.fold_left
    (fun acc (p, n) ->
      let n = min n (limit - p) in
      if n <= 0 then acc
      else acc + ok "touch" (Vmem.Addr_space.touch_range space ~addr:(base + (p * page)) ~len:(n * page)))
    0 runs

let run (spec : spec) =
  let ops = Array.sub spec.ops 0 (min max_ops (Array.length spec.ops)) in
  let parent_pages = Array.fold_left ( + ) 0 spec.parent in
  let region = Array.fold_left (fun m o -> max m o.pages) 0 ops in
  let frames =
    Vmem.Frame.create ~policy:Vmem.Frame.Overcommit
      ~frames:((2 * parent_pages) + (2 * region) + 65536)
      ()
  in
  let cost = Vmem.Cost.create () in
  let tlb = Vmem.Tlb.create ~cpus:4 cost in
  let fresh () = Vmem.Addr_space.create ~frames ~cost ~tlb () in
  let r =
    {
      clone_cow = meter ();
      cow_touch = meter ();
      zero_touch = meter ();
      destroy = meter ();
      lazy_touch = meter ();
    }
  in
  let parent = fresh () in
  (* the parent's VMAs (address, first flat page, pages), laid end to
     end in a flat page space *)
  let first = ref 0 in
  let vmas =
    Array.map
      (fun pages ->
        let len = pages * page in
        let addr =
          ok "mmap" (Vmem.Addr_space.mmap ~len ~perm:Vmem.Perm.rw ~kind:Vmem.Vma.Anon parent)
        in
        ignore
          (timed r.zero_touch Fun.id (fun () ->
               ok "warm" (Vmem.Addr_space.touch_range parent ~addr ~len)));
        first := !first + pages;
        (addr, !first - pages, pages))
      spec.parent
  in
  (* a flat run, clipped to the parent and split at VMA ends *)
  let cow_runs child runs =
    Array.fold_left
      (fun acc (p, n) ->
        Array.fold_left
          (fun acc (addr, first, pages) ->
            let lo = max p first and hi = min (p + n) (first + pages) in
            if hi <= lo then acc
            else
              acc
              + ok "cow touch"
                  (Vmem.Addr_space.touch_range child
                     ~addr:(addr + ((lo - first) * page))
                     ~len:((hi - lo) * page)))
          acc vmas)
      0 runs
  in
  let pager = Ksim.Pager.make ~frames ~deny:(fun () -> false) ~readahead () in
  Array.iter
    (fun op ->
      let child =
        timed r.clone_cow
          (fun _ -> Vmem.Addr_space.resident_pages parent)
          (fun () -> ok "clone" (Vmem.Addr_space.clone_cow parent))
      in
      ignore (timed r.cow_touch Fun.id (fun () -> cow_runs child op.runs));
      let resident = Vmem.Addr_space.resident_pages child in
      timed r.destroy (fun () -> resident) (fun () -> Vmem.Addr_space.destroy child);
      let len = op.pages * page in
      let zero = fresh () in
      let base = ok "mmap" (Vmem.Addr_space.mmap ~len ~perm:Vmem.Perm.rw ~kind:Vmem.Vma.Anon zero) in
      ignore (timed r.zero_touch Fun.id (fun () -> touch_runs zero ~base ~limit:op.pages op.runs));
      Vmem.Addr_space.destroy zero;
      let lz = fresh () in
      Vmem.Addr_space.set_pager lz (Some pager);
      let base =
        ok "map_lazy"
          (Vmem.Addr_space.map_lazy ~len ~perm:Vmem.Perm.rw
             ~kind:(Vmem.Vma.Data { path = "/replay" })
             ~cookie0:(Ksim.Pager.image_cookie ~page:0)
             ~stride:Ksim.Pager.image_stride lz)
      in
      ignore (timed r.lazy_touch Fun.id (fun () -> touch_runs lz ~base ~limit:op.pages op.runs));
      Vmem.Addr_space.destroy lz)
    ops;
  Vmem.Addr_space.destroy parent;
  r

let ns_per m = if m.units = 0 then 0.0 else m.s *. 1e9 /. float_of_int m.units
let words_per m = if m.units = 0 then 0.0 else m.words /. float_of_int m.units
