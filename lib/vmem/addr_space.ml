type fault_error = [ `Segfault | `Perm_denied | `Out_of_memory ]

(* A simulated user-mode pager: supplies the frame contents (and the
   modelled fetch cost) for pager-backed pages on their first touch.
   One upcall serves a whole request: [fetch] resolves the request's
   lazy pages (cookie k into frame k), [fetch_backing] copies its
   template-backed pages (template frame k into frame k). Both take the
   faulting space's cost meter as an argument, so one pager value can
   serve every space it is installed into whatever meter each space
   charges. [deny] is the fault-injection hook, consulted once per
   pulled page (readahead included); [readahead] is how many
   immediately-following pager-backed pages one request also pulls in. *)
type pager = {
  fetch :
    Cost.t -> cookies:int array -> frames:Frame.frame array -> n:int -> unit;
  fetch_backing :
    Cost.t -> src:Frame.frame array -> dst:Frame.frame array -> n:int -> unit;
  deny : unit -> bool;
  readahead : int;
}

type t = {
  frames : Frame.t;
  cost : Cost.t;
  tlb : Tlb.t;
  mutable regions : Vma.t Region_map.t;
  mutable pt : Page_table.t;
  mmap_base : int;
  mutable heap : (int * int) option;  (** (base, brk) — brk grows upward *)
  mutable committed : int;  (** pages this AS has charged to Frame.commit *)
  mutable dead : bool;
  batched : bool;
      (** range-batched hot paths; [false] keeps the per-page reference
          walks as the oracle the batched paths are tested against *)
  blame : Blame.t option;
  mutable blame_origin : int;
      (** id of the most recent {!Blame} sharing event this space took
          part in, or -1; COW breaks are deferred-charged to it *)
  mutable cpumask : Cpuset.t;
      (** which simulated CPUs may cache translations of this space —
          maintained by the SMP scheduler; drives targeted shootdowns *)
  mutable pager : pager option;
  mutable backing : Page_table.t option;
      (** lazy-zygote backing: a sealed template table consulted on
          faults to wholly-absent pages — a hit is a template-backed
          first-touch major fault, a miss an ordinary demand-zero *)
  mutable backing_holes : (int * int) list;
      (** vpn ranges munmapped since the clone: the backing table is
          immutable (shared with the template), so holes are recorded
          here and faults inside them fall back to demand-zero *)
}

let default_mmap_base = 0x7000_0000_0000

let create ?(mmap_base = default_mmap_base) ?(batched = true) ?blame ~frames
    ~cost ~tlb () =
  if not (Addr.is_page_aligned mmap_base) || not (Addr.valid mmap_base) then
    invalid_arg "Addr_space.create: bad mmap_base";
  {
    frames;
    cost;
    tlb;
    regions = Region_map.empty;
    pt = Page_table.create ~frames;
    mmap_base;
    heap = None;
    committed = 0;
    dead = false;
    batched;
    blame;
    blame_origin = -1;
    cpumask = Cpuset.empty;
    pager = None;
    backing = None;
    backing_holes = [];
  }

let set_pager t pg = t.pager <- pg
let lazy_pages t = Page_table.lazy_count t.pt

(* Demand paging is live in this space: faults may need the pager. The
   default configuration (no pager, no lazy entries) keeps every fault
   path bit-identical to the eager simulator. *)
let pager_active t =
  t.pager <> None && (t.backing <> None || Page_table.lazy_count t.pt > 0)

let note_cpu t ~cpu = t.cpumask <- Cpuset.add cpu t.cpumask
let set_blame_origin t id = t.blame_origin <- id

(* Run [f] with charges deferred-attributed to this space's sharing
   origin: wraps only the COW-break paths, so a space that never forked
   (or a vmem used without a ledger) attributes nothing. *)
let deferred_blame t f =
  match t.blame with
  | Some b when t.blame_origin >= 0 ->
    Blame.with_context b ~id:t.blame_origin Blame.Deferred f
  | Some _ | None -> f ()

(* Full-address-space remote flush. Legacy Tlbs broadcast to every
   configured CPU; tracked Tlbs IPI only the CPUs that actually cache a
   mapping of this space (its cpumask, minus the sender), then collapse
   the mask to the sender alone — every remote CPU just dropped its
   cached translations. *)
let as_shootdown t =
  if Tlb.tracked t.tlb then begin
    Tlb.flush_local t.tlb;
    Tlb.ipi t.tlb ~dsts:t.cpumask ~full:true ~n:1;
    t.cpumask <- Cpuset.singleton (Tlb.active_cpu t.tlb)
  end
  else Tlb.shootdown t.tlb

(* Per-page invalidation. Tracked Tlbs additionally IPI each remote CPU
   in the mask once per page (the invlpg must reach every CPU that may
   cache the stale translation); the mask is *not* collapsed — other
   translations of this space stay cached remotely. *)
let invalidate t ~n =
  Tlb.invalidate_pages t.tlb ~n;
  if Tlb.tracked t.tlb && n > 0 then Tlb.ipi t.tlb ~dsts:t.cpumask ~full:false ~n

let invalidate_one t = invalidate t ~n:1

let mmap_base t = t.mmap_base
let alive t name = if t.dead then invalid_arg (name ^ ": destroyed address space")

let charge_commit t pages =
  match Frame.commit t.frames pages with
  | Ok () ->
    t.committed <- t.committed + pages;
    Ok ()
  | Error `Commit_limit -> Error `Commit_limit

let release_commit t pages =
  Frame.uncommit t.frames pages;
  t.committed <- max 0 (t.committed - pages)

let needs_commit vma = not vma.Vma.shared && vma.Vma.kind <> Vma.Guard

let mmap ?addr ?(shared = false) ~len ~perm ~kind t =
  alive t "Addr_space.mmap";
  if len <= 0 then Error `Invalid
  else begin
    let len = Addr.align_up len in
    let vma = Vma.make ~shared ~perm ~kind () in
    let place start =
      match Region_map.add ~start ~stop:(start + len) vma t.regions with
      | Error `Overlap -> Error `Overlap
      | Ok regions ->
        let pages = len / Addr.page_size in
        if needs_commit vma then begin
          match charge_commit t pages with
          | Error `Commit_limit -> Error `Commit_limit
          | Ok () ->
            t.regions <- regions;
            Ok start
        end
        else begin
          t.regions <- regions;
          Ok start
        end
    in
    match addr with
    | Some a ->
      if not (Addr.is_page_aligned a) || not (Addr.valid a) || a + len > Addr.max_va
      then Error `Invalid
      else place a
    | None -> (
      match
        Region_map.find_gap ~min:t.mmap_base ~max:Addr.max_va ~len t.regions
      with
      | None -> Error `No_space
      | Some a -> place a)
  end

(* Map a pager-backed (lazy) range: the VMA and commit admission of
   [mmap], then one [map_lazy_range] installing empty leaves — no frame
   allocated, no byte copied, cost O(ranges). Page [k] carries cookie
   [cookie0 + k*stride] for the pager to resolve at first touch. *)
let map_lazy ?addr ~len ~perm ~kind ~cookie0 ~stride t =
  alive t "Addr_space.map_lazy";
  if t.pager = None then invalid_arg "Addr_space.map_lazy: no pager installed";
  match mmap ?addr ~len ~perm ~kind t with
  | Error _ as e -> e
  | Ok start ->
    Page_table.map_lazy_range t.pt ~vpn:(Addr.page_number start)
      ~n:(Addr.align_up len / Addr.page_size)
      ~cookie0 ~stride ~perm;
    Ok start

(* Release the frames mapped under [start, stop) and return how many
   pages were resident. *)
let release_pages t ~start ~stop =
  let vpn0 = Addr.page_number start and vpn1 = Addr.page_number (stop - 1) in
  if t.batched then
    Page_table.unmap_range t.pt ~vpn0 ~vpn1 ~f:(fun pte ->
        ignore (Frame.decref t.frames (Pte.frame pte)))
  else begin
    let released = ref 0 in
    for vpn = vpn0 to vpn1 do
      let pte = Page_table.unmap t.pt ~vpn in
      if Pte.present pte then begin
        ignore (Frame.decref t.frames (Pte.frame pte));
        incr released
      end
    done;
    !released
  end

let munmap t ~addr ~len =
  alive t "Addr_space.munmap";
  if len <= 0 || not (Addr.is_page_aligned addr) || not (Addr.valid addr) then
    Error `Invalid
  else begin
    let stop = addr + Addr.align_up len in
    let regions, removed =
      Region_map.carve ~start:addr ~stop ~crop:Vma.crop t.regions
    in
    t.regions <- regions;
    List.iter
      (fun (s, e, vma) ->
        ignore (release_pages t ~start:s ~stop:e);
        if t.backing <> None then
          t.backing_holes <-
            (Addr.page_number s, Addr.page_number (e - 1)) :: t.backing_holes;
        if needs_commit vma then release_commit t ((e - s) / Addr.page_size))
      removed;
    if removed <> [] then as_shootdown t;
    Ok ()
  end

let protect t ~addr ~len ~perm =
  alive t "Addr_space.protect";
  if len <= 0 || not (Addr.is_page_aligned addr) || not (Addr.valid addr) then
    Error `Invalid
  else begin
    let stop = addr + Addr.align_up len in
    (* the range must be fully covered by existing VMAs *)
    let overlaps = Region_map.overlapping ~start:addr ~stop t.regions in
    let covered =
      let rec check pos = function
        | [] -> pos >= stop
        | (s, e, _) :: rest -> s <= pos && check (max pos e) rest
      in
      check addr overlaps
    in
    if not covered then Error `No_region
    else begin
      let regions, removed =
        Region_map.carve ~start:addr ~stop ~crop:Vma.crop t.regions
      in
      let regions =
        List.fold_left
          (fun regions (s, e, vma) ->
            match
              Region_map.add ~start:s ~stop:e { vma with Vma.perm } regions
            with
            | Ok r -> r
            | Error `Overlap -> assert false (* we just carved the range *))
          regions removed
      in
      t.regions <- regions;
      (* downgrade/upgrade PTEs; COW pages keep write off *)
      let vpn0 = Addr.page_number addr and vpn1 = Addr.page_number (stop - 1) in
      let repermit pte =
        let p =
          if Pte.cow pte then { perm with Perm.write = false } else perm
        in
        Pte.with_perm pte p
      in
      if t.batched then
        ignore (Page_table.protect_range t.pt ~vpn0 ~vpn1 ~f:repermit)
      else
        for vpn = vpn0 to vpn1 do
          ignore (Page_table.update t.pt ~vpn repermit)
        done;
      as_shootdown t;
      Ok ()
    end
  end

let set_heap_base t base =
  alive t "Addr_space.set_heap_base";
  if not (Addr.is_page_aligned base) || not (Addr.valid base) then
    invalid_arg "Addr_space.set_heap_base: bad base";
  match t.heap with
  | Some _ -> invalid_arg "Addr_space.set_heap_base: heap already set"
  | None -> t.heap <- Some (base, base)

(* Rollback hook for failed image loads: forget a heap base that was set
   while building an image that is now being torn back down. Only legal
   while the heap is still empty — a grown heap is real state. *)
let reset_heap_base t =
  alive t "Addr_space.reset_heap_base";
  match t.heap with
  | None -> ()
  | Some (base, brk) ->
    if brk <> base then invalid_arg "Addr_space.reset_heap_base: heap in use";
    t.heap <- None

let brk t =
  alive t "Addr_space.brk";
  match t.heap with
  | None -> invalid_arg "Addr_space.brk: no heap"
  | Some (_, b) -> b

let set_brk t new_brk =
  alive t "Addr_space.set_brk";
  match t.heap with
  | None -> Error `Invalid
  | Some (base, cur) ->
    if (not (Addr.is_page_aligned new_brk)) || new_brk < base then Error `Invalid
    else if new_brk = cur then Ok ()
    else if new_brk > cur then begin
      (* grow: extend (or create) the heap VMA *)
      let vma = Vma.make ~perm:Perm.rw ~kind:Vma.Heap () in
      let regions, _ =
        if cur > base then
          Region_map.carve ~start:base ~stop:cur ~crop:Vma.crop t.regions
        else (t.regions, [])
      in
      match Region_map.add ~start:base ~stop:new_brk vma regions with
      | Error `Overlap -> Error `Overlap
      | Ok regions -> (
        let pages = (new_brk - cur) / Addr.page_size in
        match charge_commit t pages with
        | Error `Commit_limit -> Error `Commit_limit
        | Ok () ->
          t.regions <- regions;
          t.heap <- Some (base, new_brk);
          Ok ())
    end
    else begin
      (* shrink: release the tail *)
      match munmap t ~addr:new_brk ~len:(cur - new_brk) with
      | Error `Invalid -> Error `Invalid
      | Ok () ->
        t.heap <- Some (base, new_brk);
        Ok ()
    end

let params t = Cost.params t.cost

let demand_fill t ~vpn ~perm =
  let p = params t in
  match Frame.alloc t.frames with
  | Error `Out_of_memory -> Error `Out_of_memory
  | Ok frame ->
    Cost.charge t.cost Fault_zero_fill p.Cost.frame_zero;
    Page_table.map t.pt ~vpn (Pte.make ~frame ~perm ());
    Ok ()

(* The frame's count is read only once the writer's path is private: a
   leaf shared with a clone holds one reference for every table that
   shares it, so only a private leaf's count says whether another table
   maps the frame. *)
let break_cow t ~vpn ~pte ~region_perm =
  let p = params t in
  let frame = Pte.frame pte in
  let leaf = Page_table.writable_leaf t.pt ~vpn in
  let i = Addr.table_index ~level:0 vpn in
  if Frame.refcount t.frames frame = 1 then begin
    (* last sharer: take the page back in place *)
    Cost.tally t.cost Fault_cow_reuse;
    leaf.(i) <- Pte.with_cow (Pte.with_perm pte region_perm) false;
    invalidate_one t;
    Ok ()
  end
  else begin
    match Frame.alloc t.frames with
    | Error `Out_of_memory -> Error `Out_of_memory
    | Ok fresh ->
      Cost.charge t.cost Fault_cow_copy p.Cost.frame_copy;
      Frame.copy_contents t.frames ~src:frame ~dst:fresh;
      ignore (Frame.decref t.frames frame);
      leaf.(i) <- Pte.make ~frame:fresh ~perm:region_perm ();
      invalidate_one t;
      Ok ()
  end

let rec in_hole vpn = function
  | [] -> false
  | (lo, hi) :: rest -> (vpn >= lo && vpn <= hi) || in_hole vpn rest

(* Where the pager sources the non-present page [vpn], named by an
   entry so that naming it allocates nothing: the page's own lazy entry
   [pte] (its cookie), else the backing table's entry [b] when that is a
   present template page outside every munmap hole (its frame), else
   [Pte.absent] — ordinary demand-zero. *)
let source_of t ~vpn ~pte ~b =
  if Pte.lazy_ pte then pte
  else if Pte.present b && not (in_hole vpn t.backing_holes) then b
  else Pte.absent

let source t ~vpn ~pte =
  source_of t ~vpn ~pte
    ~b:
      (match t.backing with
      | None -> Pte.absent
      | Some bpt -> Page_table.lookup bpt ~vpn)

let pager_of t =
  match t.pager with
  | Some pg -> pg
  | None -> invalid_arg "Addr_space.fault: pager-backed page but no pager"

(* The pages one pager request pulls, by source: lazy pages as (cookie,
   frame) pairs, template-backed ones as (template frame, frame) pairs.
   The arrays grow to the largest request seen. *)
type request = {
  mutable cookies : int array;
  mutable targets : Frame.frame array;  (** frame k receives cookie k *)
  mutable images : int;
  mutable srcs : Frame.frame array;
  mutable dsts : Frame.frame array;
  mutable backed : int;
}

(* Per-domain buffers, so a fault allocates none: one leaf's worth of
   frame numbers for demand fills (a frame array per leaf would be a
   major-heap block each) and the pager request under assembly. Made on
   a domain's first touch, not at module initialisation. *)
type buffers = { fill : Frame.frame array; request : request }

let buffers =
  Domain.DLS.new_key (fun () ->
      {
        fill = Array.make Addr.entries_per_table 0;
        request =
          { cookies = [||]; targets = [||]; images = 0; srcs = [||];
            dsts = [||]; backed = 0 };
      })

let new_request pg =
  let r = (Domain.DLS.get buffers).request in
  let cap = pg.readahead + 1 in
  if Array.length r.cookies < cap then begin
    r.cookies <- Array.make cap 0;
    r.targets <- Array.make cap 0;
    r.srcs <- Array.make cap 0;
    r.dsts <- Array.make cap 0
  end;
  r.images <- 0;
  r.backed <- 0;
  r

(* Pull the page whose source is [src] into the request: the pager's
   deny hook first, then a frame. Returns the frame, or -1 when either
   refuses — the page's entry is then left exactly as it was. *)
let pull t pg req src =
  if pg.deny () then -1
  else
    let frame = Frame.take t.frames in
    if frame >= 0 then begin
      if Pte.lazy_ src then begin
        req.cookies.(req.images) <- Pte.cookie src;
        req.targets.(req.images) <- frame;
        req.images <- req.images + 1
      end
      else begin
        req.srcs.(req.backed) <- Pte.frame src;
        req.dsts.(req.backed) <- frame;
        req.backed <- req.backed + 1
      end
    end;
    frame

(* The request's upcalls: one per source kind it pulled pages from,
   each charging its fetch category once. Runs in the deferred-blame
   context: a zygote child's fetches bill the spawn event that made its
   pages lazy. *)
let submit t pg req =
  deferred_blame t (fun () ->
      if req.images > 0 then
        pg.fetch t.cost ~cookies:req.cookies ~frames:req.targets ~n:req.images;
      if req.backed > 0 then
        pg.fetch_backing t.cost ~src:req.srcs ~dst:req.dsts ~n:req.backed)

(* Readahead through the per-page helpers over [v0, stop]: each page is
   looked up and mapped prefetched on its own, stopping at the first
   present page, page with no pager source, or refused pull. *)
let rec readahead_pages t pg req ~perm ~v0 ~stop =
  if v0 <= stop then begin
    let pte = Page_table.lookup t.pt ~vpn:v0 in
    if not (Pte.present pte) then begin
      let src = source t ~vpn:v0 ~pte in
      if src <> Pte.absent then begin
        let frame = pull t pg req src in
        if frame >= 0 then begin
          Page_table.map t.pt ~vpn:v0
            (Pte.mark_prefetched (Pte.make ~frame ~perm ()));
          readahead_pages t pg req ~perm ~v0:(v0 + 1) ~stop
        end
      end
    end
  end

(* First-touch (major) fault on a pager-backed page, the per-page
   reference: one pager request serves the faulting page plus up to
   [readahead] immediately-following pager-backed pages of the same VMA
   (ending at page [rlast]), installed with the prefetched mark (their
   later first access tallies a readahead hit). Readahead stops silently
   at the first present page, page with no pager source, denied fetch
   or allocation failure — only the faulting page's failure surfaces,
   after its fault_base and request charges. Charges carry the
   deferred-blame context. *)
let pager_fault t pg ~perm ~rlast ~vpn ~src =
  let p = params t in
  deferred_blame t (fun () ->
      Cost.charge t.cost Fault_base p.Cost.fault_base;
      Cost.charge t.cost Pager_request p.Cost.pager_request);
  let req = new_request pg in
  let frame = pull t pg req src in
  if frame < 0 then Error `Out_of_memory
  else begin
    Page_table.map t.pt ~vpn (Pte.make ~frame ~perm ());
    readahead_pages t pg req ~perm ~v0:(vpn + 1)
      ~stop:(min rlast (vpn + pg.readahead));
    submit t pg req;
    Ok ()
  end

let fault t ~addr ~write =
  alive t "Addr_space.fault";
  let p = params t in
  if not (Addr.valid addr) then Error `Segfault
  else
    match Region_map.find_containing addr t.regions with
    | None -> Error `Segfault
    | Some (_, rstop, vma) ->
      let requested =
        if write then { Perm.none with Perm.write = true }
        else { Perm.none with Perm.read = true }
      in
      if not (Perm.allows vma.Vma.perm requested) then Error `Perm_denied
      else begin
        let vpn = Addr.page_number addr in
        let pte = Page_table.lookup t.pt ~vpn in
        if not (Pte.present pte) then begin
          let src = source t ~vpn ~pte in
          if src <> Pte.absent then
            pager_fault t (pager_of t) ~perm:vma.Vma.perm
              ~rlast:(Addr.page_number (rstop - 1)) ~vpn ~src
          else begin
            Cost.charge t.cost Fault_base p.Cost.fault_base;
            demand_fill t ~vpn ~perm:vma.Vma.perm
          end
        end
        else if write && not (Pte.writable pte) then begin
          if Pte.cow pte then
            (* the deferred half of a fork's bill: charge the break to
               the sharing event that created this COW mapping *)
            deferred_blame t (fun () ->
                Cost.charge t.cost Fault_base p.Cost.fault_base;
                break_cow t ~vpn ~pte ~region_perm:vma.Vma.perm)
          else begin
            Cost.charge t.cost Fault_base p.Cost.fault_base;
            (* stale protection (e.g. mprotect round-trip): refresh in place *)
            ignore
              (Page_table.update t.pt ~vpn (fun pte ->
                   Pte.with_perm pte vma.Vma.perm));
            invalidate_one t;
            Ok ()
          end
        end
        else begin
          if Pte.prefetched pte then
            (* first real access to a page readahead pulled in: the
               prefetch paid off — count the hit, clear the mark *)
            Cost.tally t.cost Pager_readahead_hit;
          ignore
            (Page_table.update t.pt ~vpn (fun pte ->
                 let pte = Pte.clear_prefetched (Pte.mark_accessed pte) in
                 if write then Pte.mark_dirty pte else pte));
          Ok ()
        end
      end

let touch t addr = fault t ~addr ~write:true

exception Fault_stop of fault_error

(* A batched write-touch in progress: the VMA and leaf under the cursor,
   and per-category tallies of the per-page charges the walk owes. Each
   tally is flushed once, as one [~n] charge, in the Blame context the
   per-page walk charges it in (every cost parameter is an
   integer-valued float, so one charge of n*c equals n charges of c
   exactly, and event counts are summed either way). *)
type walk = {
  space : t;
  mutable rperm : Perm.t;  (** the VMA's permission *)
  mutable rlast : int;  (** the VMA's last page *)
  mutable base : int;  (** vpn of the current leaf's entry 0 *)
  mutable leaf : Pte.t array;
      (** the current leaf as read, empty when missing; once [owned],
          the private copy writes go to *)
  mutable owned : bool;
  mutable back : Pte.t array;  (** the backing table's leaf at [base] *)
  mutable pages : int;  (** pages touched *)
  (* plain context: demand-zero fills, refreshes, readahead hits *)
  mutable faults : int;
  mutable zero_fills : int;
  mutable refreshes : int;
  mutable hits : int;
  (* deferred context: COW breaks and pager faults *)
  mutable deferred_faults : int;
  mutable requests : int;
  mutable cow_reuses : int;
  mutable cow_copies : int;
}

let flush w =
  let t = w.space in
  let p = params t in
  let charge cat ~n c =
    if n > 0 then Cost.charge ~n t.cost cat (c *. float_of_int n)
  in
  charge Fault_base ~n:w.faults p.Cost.fault_base;
  charge Fault_zero_fill ~n:w.zero_fills p.Cost.frame_zero;
  charge Pager_readahead_hit ~n:w.hits 0.0;
  invalidate t ~n:w.refreshes;
  if w.deferred_faults > 0 then
    deferred_blame t (fun () ->
        charge Fault_base ~n:w.deferred_faults p.Cost.fault_base;
        charge Pager_request ~n:w.requests p.Cost.pager_request;
        charge Fault_cow_reuse ~n:w.cow_reuses 0.0;
        charge Fault_cow_copy ~n:w.cow_copies p.Cost.frame_copy;
        invalidate t ~n:(w.cow_reuses + w.cow_copies))

let writable w =
  if not w.owned then begin
    w.leaf <- Page_table.writable_leaf w.space.pt ~vpn:w.base;
    w.owned <- true
  end;
  w.leaf

let source_at w i ~pte =
  source_of w.space ~vpn:(w.base + i) ~pte ~b:(Page_table.entry w.back i)

(* Demand-zero fill of the [n] absent pages from leaf index [i]: frames
   in the order [n] allocs would give them. The failing page of a short
   allocation still pays fault_base, like the per-page walk, and a
   wholly-failed run creates no leaf. *)
let zero_fill w ~i ~n =
  let t = w.space in
  let frames = (Domain.DLS.get buffers).fill in
  let m = Frame.alloc_upto t.frames ~into:frames n in
  w.faults <- w.faults + m;
  w.zero_fills <- w.zero_fills + m;
  if m > 0 then begin
    Pte.blit_run ~frames ~n:m ~perm:w.rperm (writable w) ~at:i;
    Page_table.note_mapped t.pt m;
    w.pages <- w.pages + m
  end;
  if m < n then begin
    w.faults <- w.faults + 1;
    raise (Fault_stop `Out_of_memory)
  end

(* Pull pages [k .. n-1] of a run into [dst.(at + k)], page by page:
   the pager's deny hook, then a frame. Returns how many of the run's
   pages are pulled; the first refusal stops it. *)
let rec pull_run t pg dst ~at ~k ~n =
  if k = n || pg.deny () then k
  else
    let frame = Frame.take t.frames in
    if frame < 0 then k
    else begin
      dst.(at + k) <- frame;
      pull_run t pg dst ~at ~k:(k + 1) ~n
    end

(* The last page of [vpn, last] before the first munmap hole at or after
   [vpn]: below [vpn] when [vpn] is in one. *)
let rec unholed ~vpn ~last = function
  | [] -> last
  | (lo, hi) :: rest ->
    unholed ~vpn ~last:(if hi >= vpn then min last (lo - 1) else last) rest

(* The major fault of leaf index [i], served as one request window: the
   faulting page plus up to [readahead] following pager-backed pages of
   the VMA, through the leaf while it lasts, then through the per-page
   helpers. In the leaf the window is a sequence of sub-runs of one
   source each: own lazy entries, or template-backed pages outside every
   munmap hole. A sub-run is found with one Pte scan, pulled page by
   page, gathered (cookies or template frames) with one Pte pass and
   installed in its final state with another ([Pte.fetched_run]):
   readahead pages up to [hi] are the touch's own next pages, so they
   count as readahead hits here and the walk resumes after the window.
   A present page, a page with no pager source or a refused pull ends
   the window. A failed faulting page leaves its entry (and a missing
   leaf) as it was, after its fault_base and request tallies. Returns
   the leaf index to resume at. *)
let major_fault w pg ~i ~hi =
  let t = w.space in
  w.deferred_faults <- w.deferred_faults + 1;
  w.requests <- w.requests + 1;
  let req = new_request pg in
  let stop = min w.rlast (w.base + i + pg.readahead) in
  let last = min (stop - w.base) (Addr.entries_per_table - 1) in
  let j = ref i and cut = ref false in
  while (not !cut) && !j <= last do
    let lo = !j in
    let lazy_end = Pte.lazy_run_end w.leaf ~lo ~hi:last in
    let own = lazy_end > lo in
    let e =
      if own then lazy_end
      else
        let hole_free =
          unholed ~vpn:(w.base + lo) ~last:(w.base + last) t.backing_holes
        in
        Pte.backed_run_end ~own:w.leaf ~back:w.back ~lo ~hi:(hole_free - w.base)
    in
    if e = lo then cut := true
    else begin
      let frames = if own then req.targets else req.dsts in
      let at = if own then req.images else req.backed in
      let m = pull_run t pg frames ~at ~k:0 ~n:(e - lo) in
      if m = 0 && lo = i then raise (Fault_stop `Out_of_memory);
      if m > 0 then begin
        let leaf = writable w in
        if own then begin
          Pte.sources_of_run leaf ~lo ~n:m ~dst:req.cookies ~at;
          req.images <- at + m;
          Page_table.note_resolved t.pt m
        end
        else begin
          Pte.sources_of_run w.back ~lo ~n:m ~dst:req.srcs ~at;
          req.backed <- at + m
        end;
        Pte.fetched_run leaf ~at:lo ~frames ~off:at ~n:m ~perm:w.rperm ~fault:i
          ~hi;
        Page_table.note_mapped t.pt m
      end;
      j := lo + m;
      if m < e - lo then cut := true
    end
  done;
  if (not !cut) && stop > w.base + last then
    readahead_pages t pg req ~perm:w.rperm ~v0:(w.base + last + 1) ~stop;
  submit t pg req;
  let touched = min !j (hi + 1) - i in
  w.hits <- w.hits + touched - 1;
  w.pages <- w.pages + touched;
  !j

(* The COW break of leaf indices [i, j), a run of present read-only COW
   entries: [break_cow]'s transitions page by page, in one Frame call
   and one Pte call. As in [break_cow], the counts are read through a
   private leaf. The failing page of a short run still pays its
   fault_base, and its entry is left as it was. *)
let break_cow_run w ~i ~j =
  let leaf = writable w in
  let frames = (Domain.DLS.get buffers).fill in
  let n = Pte.frames_of_run leaf ~lo:i ~hi:(j - 1) ~dst:frames in
  let m = Frame.unshare_many w.space.frames frames n in
  let reused = Pte.unshare_run leaf ~at:i ~frames ~n:m ~perm:w.rperm in
  w.deferred_faults <- w.deferred_faults + m;
  w.cow_reuses <- w.cow_reuses + reused;
  w.cow_copies <- w.cow_copies + (m - reused);
  w.pages <- w.pages + m;
  if m < n then begin
    w.deferred_faults <- w.deferred_faults + 1;
    raise (Fault_stop `Out_of_memory)
  end

(* A writable page under a write touch: a plain hit sets the reference
   bits, counting a readahead hit on a prefetched page. *)
let touch_writable w ~i ~pte =
  if Pte.prefetched pte then w.hits <- w.hits + 1;
  let updated = Pte.mark_dirty (Pte.mark_accessed (Pte.clear_prefetched pte)) in
  if updated <> pte then (writable w).(i) <- updated;
  w.pages <- w.pages + 1

(* A read-only page that is not COW: its stale protection is refreshed
   in place. *)
let refresh w ~i ~pte =
  w.faults <- w.faults + 1;
  w.refreshes <- w.refreshes + 1;
  (writable w).(i) <- Pte.with_perm pte w.rperm;
  w.pages <- w.pages + 1

(* The end of the run of demand-zero pages (not present, no pager
   source) from leaf index [i]. Without a backing leaf such a page is an
   absent entry, and a missing leaf is one run; only under a backing
   leaf does each page need its source looked up. *)
let zero_run_end w ~i ~hi =
  let leaf = w.leaf and j = ref i in
  if Array.length w.back = 0 then begin
    if Array.length leaf = 0 then j := hi + 1
    else
      while !j <= hi && Array.unsafe_get leaf !j = Pte.absent do
        incr j
      done
  end
  else
    while
      !j <= hi
      &&
      let pte = Page_table.entry leaf !j in
      (not (Pte.present pte)) && source_at w !j ~pte = Pte.absent
    do
      incr j
    done;
  !j

(* Write-touch indices [lo, hi] of the leaf at [base]: the same per-page
   transitions, in the same ascending order, as [fault ~write:true]. A
   run of COW pages breaks, a run of demand-zero pages is filled, and a
   major fault's request window is served, in one batch. *)
let touch_leaf w ~base ~lo ~hi =
  w.base <- base;
  w.leaf <- Page_table.find_leaf w.space.pt ~vpn:base;
  w.owned <- false;
  w.back <-
    (match w.space.backing with
    | None -> [||]
    | Some bpt -> Page_table.find_leaf bpt ~vpn:base);
  let i = ref lo in
  while !i <= hi do
    let pte = Page_table.entry w.leaf !i in
    if Pte.present pte then begin
      if Pte.writable pte then begin
        touch_writable w ~i:!i ~pte;
        incr i
      end
      else begin
        let j = Pte.cow_run_end w.leaf ~lo:!i ~hi in
        if j > !i then begin
          break_cow_run w ~i:!i ~j;
          i := j
        end
        else begin
          refresh w ~i:!i ~pte;
          incr i
        end
      end
    end
    else begin
      let src = source_at w !i ~pte in
      if src <> Pte.absent then i := major_fault w (pager_of w.space) ~i:!i ~hi
      else begin
        let j = zero_run_end w ~i:(!i + 1) ~hi in
        zero_fill w ~i:!i ~n:(j - !i);
        i := j
      end
    end
  done

(* Batched write-touch of [vpn0, vpn1]: per VMA, the permission check of
   the per-page walk, then each leaf located once. *)
let touch_batched w ~vpn0 ~vpn1 =
  let t = w.space in
  let vpn = ref vpn0 in
  while !vpn <= vpn1 do
    let a = Addr.addr_of_page !vpn in
    if not (Addr.valid a) then raise (Fault_stop `Segfault);
    match Region_map.find_containing a t.regions with
    | None -> raise (Fault_stop `Segfault)
    | Some (_, e, vma) ->
      if not vma.Vma.perm.Perm.write then raise (Fault_stop `Perm_denied);
      w.rperm <- vma.Vma.perm;
      w.rlast <- Addr.page_number (e - 1);
      let sub_end = min vpn1 w.rlast in
      while !vpn <= sub_end do
        let base = !vpn land lnot (Addr.entries_per_table - 1) in
        let hi = min sub_end (base + Addr.entries_per_table - 1) in
        touch_leaf w ~base ~lo:(!vpn - base) ~hi:(hi - base);
        vpn := hi + 1
      done
  done

let touch_range t ~addr ~len =
  if len <= 0 then Ok 0
  else begin
    let vpn0 = Addr.page_number addr in
    let vpn1 = Addr.page_number (addr + len - 1) in
    if t.batched then begin
      (* the per-page walk hits [fault]'s liveness check on page one *)
      alive t "Addr_space.fault";
      let w =
        { space = t; rperm = Perm.none; rlast = 0; base = 0; leaf = [||];
          owned = false; back = [||]; pages = 0; faults = 0; zero_fills = 0;
          refreshes = 0; hits = 0; deferred_faults = 0; requests = 0;
          cow_reuses = 0; cow_copies = 0 }
      in
      match touch_batched w ~vpn0 ~vpn1 with
      | () ->
        flush w;
        Ok w.pages
      | exception Fault_stop err ->
        flush w;
        Error err
    end
    else begin
      let rec go vpn n =
        if vpn > vpn1 then Ok n
        else
          match touch t (Addr.addr_of_page vpn) with
          | Ok () -> go (vpn + 1) (n + 1)
          | Error e -> Error e
      in
      go vpn0 0
    end
  end

(* [f ~addr ~pos ~n] on each page-bounded piece of [addr, addr+len) in
   ascending order — [n] bytes at [addr], bytes [pos..pos+n) of the
   range — until one fails. *)
let rec each_page ~addr ~len ~pos f =
  if pos >= len then Ok ()
  else
    let a = addr + pos in
    let n = min (len - pos) (Addr.page_size - Addr.page_offset a) in
    match f ~addr:a ~pos ~n with
    | Error _ as e -> e
    | Ok () -> each_page ~addr ~len ~pos:(pos + n) f

(* The accesses a byte-at-a-time walk makes of one page's [n] bytes at
   [addr]: the first byte faults; the second, if any, is a plain access,
   which can only set the reference bits or count the readahead hit of
   a page a COW reuse or a refresh left prefetched (it cannot fail: the
   page is now present at the region permission); later bytes change
   nothing. *)
let access_page t ~addr ~n ~write =
  match fault t ~addr ~write with
  | Error _ as e -> e
  | Ok () ->
    if n > 1 then ignore (fault t ~addr:(addr + 1) ~write);
    Ok ()

let frame_at t addr = Pte.frame (Page_table.lookup t.pt ~vpn:(Addr.page_number addr))

let read_bytes t ~addr ~len =
  (* every page faults before the result is allocated, so a bad range
     fails without allocating its length *)
  match
    each_page ~addr ~len ~pos:0 (fun ~addr ~pos:_ ~n ->
        access_page t ~addr ~n ~write:false)
  with
  | Error _ as e -> e
  | Ok () ->
    let buf = Bytes.create len in
    ignore
      (each_page ~addr ~len ~pos:0 (fun ~addr ~pos ~n ->
           Frame.read_into t.frames (frame_at t addr)
             ~off:(Addr.page_offset addr) ~len:n buf ~pos;
           Ok ()));
    Ok (Bytes.unsafe_to_string buf)

let write_bytes t ~addr data =
  each_page ~addr ~len:(String.length data) ~pos:0 (fun ~addr ~pos ~n ->
      match access_page t ~addr ~n ~write:true with
      | Error _ as e -> e
      | Ok () ->
        Frame.blit_string t.frames (frame_at t addr)
          ~off:(Addr.page_offset addr) ~pos ~len:n data;
        Ok ())

let map_image_page t ~addr ~perm ?data ~kind () =
  alive t "Addr_space.map_image_page";
  if not (Addr.is_page_aligned addr) then Error `Invalid
  else begin
    match mmap ~addr ~len:Addr.page_size ~perm ~kind t with
    | Error (`No_space | `Invalid) -> Error `Invalid
    | Error (`Overlap | `Commit_limit) as e -> e
    | Ok _ -> (
      match Frame.alloc t.frames with
      | Error `Out_of_memory -> Error `Out_of_memory
      | Ok frame ->
        Cost.charge t.cost Exec_load_page (params t).Cost.exec_per_page;
        (match data with
        | Some s -> Frame.blit_string t.frames frame ~off:0 s
        | None -> ());
        Page_table.map t.pt ~vpn:(Addr.page_number addr)
          (Pte.make ~frame ~perm ());
        Ok ())
  end

let clone_common t ~pt ~committed_charge =
  {
    frames = t.frames;
    cost = t.cost;
    tlb = t.tlb;
    regions = t.regions;
    pt;
    mmap_base = t.mmap_base;
    heap = t.heap;
    committed = committed_charge;
    dead = false;
    batched = t.batched;
    blame = t.blame;
    (* the kernel stamps the clone's sharing origin explicitly after the
       creating syscall succeeds; until then nothing is attributed *)
    blame_origin = -1;
    (* no CPU caches the clone's translations until it is scheduled *)
    cpumask = Cpuset.empty;
    pager = t.pager;
    (* a forked lazy-zygote child keeps faulting against the template *)
    backing = t.backing;
    backing_holes = t.backing_holes;
  }

(* After a COW page-table copy, pages of *shared* VMAs must not be COW:
   both processes should keep writing the same frame. *)
let fixup_shared t child_pt =
  Region_map.iter
    (fun s e vma ->
      if vma.Vma.shared then begin
        let vpn0 = Addr.page_number s and vpn1 = Addr.page_number (e - 1) in
        for vpn = vpn0 to vpn1 do
          let restore pt =
            ignore
              (Page_table.update pt ~vpn (fun pte ->
                   if Pte.cow pte then
                     Pte.with_cow (Pte.with_perm pte vma.Vma.perm) false
                   else pte))
          in
          restore t.pt;
          restore child_pt
        done
      end)
    t.regions

(* Page ranges of shared VMAs, ascending and disjoint, with the region
   permission their PTEs must keep across a fork. *)
let shared_ranges t =
  List.filter_map
    (fun (s, e, vma) ->
      if vma.Vma.shared then
        Some (Addr.page_number s, Addr.page_number (e - 1), vma.Vma.perm)
      else None)
    (Region_map.to_list t.regions)

(* Every creation that copies the region map pays one vma_clone per
   VMA: fork (COW or eager), template seal, zygote spawn. *)
let charge_vma_clones t =
  let n = Region_map.cardinal t.regions in
  Cost.charge ~n t.cost Fork_vma ((params t).Cost.vma_clone *. float_of_int n)

let clone_cow t =
  alive t "Addr_space.clone_cow";
  (* the child re-charges the parent's private commit: this is the
     accounting pressure that makes strict-commit systems reject big
     forks even though COW would copy almost nothing *)
  match Frame.commit t.frames t.committed with
  | Error `Commit_limit -> Error `Commit_limit
  | Ok () ->
    charge_vma_clones t;
    let child_pt =
      if t.batched then
        (* lazy subtree sharing; the shared-VMA fixup is fused into the
           clone's single leaf pass *)
        Page_table.clone_cow_shared t.pt ~cost:t.cost ~shared:(shared_ranges t)
      else begin
        let pt = Page_table.clone_cow t.pt ~cost:t.cost in
        fixup_shared t pt;
        pt
      end
    in
    as_shootdown t;
    Ok (clone_common t ~pt:child_pt ~committed_charge:t.committed)

let clone_eager t =
  alive t "Addr_space.clone_eager";
  let p = params t in
  match Frame.commit t.frames t.committed with
  | Error `Commit_limit -> Error `Commit_limit
  | Ok () ->
    charge_vma_clones t;
    let child_pt = Page_table.create ~frames:t.frames in
    let result =
      Page_table.fold_present t.pt ~init:(Ok ()) ~f:(fun acc ~vpn pte ->
          match acc with
          | Error _ as e -> e
          | Ok () -> (
            let vma =
              Region_map.find_containing (Addr.addr_of_page vpn) t.regions
            in
            let perm =
              match vma with
              | Some (_, _, v) -> v.Vma.perm
              | None -> Pte.perm pte
            in
            let shared =
              match vma with Some (_, _, v) -> v.Vma.shared | None -> false
            in
            if shared then begin
              Frame.incref t.frames (Pte.frame pte);
              Page_table.map child_pt ~vpn
                (Pte.make ~frame:(Pte.frame pte) ~perm ());
              Ok ()
            end
            else
              match Frame.alloc t.frames with
              | Error `Out_of_memory -> Error `Out_of_memory
              | Ok fresh ->
                Cost.charge t.cost Fork_eager_copy p.Cost.frame_copy;
                Frame.copy_contents t.frames ~src:(Pte.frame pte) ~dst:fresh;
                Page_table.map child_pt ~vpn (Pte.make ~frame:fresh ~perm ());
                Ok ()))
    in
    (match result with
    | Error `Out_of_memory ->
      ignore (Page_table.clear child_pt);
      Frame.uncommit t.frames t.committed;
      Error `Out_of_memory
    | Ok () -> Ok (clone_common t ~pt:child_pt ~committed_charge:t.committed))

(* Template (zygote) support.

   [seal] turns a warmed address space into an immutable template image:
   fork's own leaf pass (charged at exactly the fork categories — the
   freeze is an honest O(footprint) one-time cost) downgrades writable
   pages to read-only COW, then every resident frame is pinned immortal
   ({!Frame.pin}), so per-child spawns never touch those refcounts. The
   source keeps running; its later writes COW away from the pinned
   frames. The returned space is the template's handle: it carries the
   sealed table, the region map and heap marker children inherit, and a
   zero commit charge (each child re-charges its own commit; the
   template object owns frames, not commit). *)
let seal t =
  alive t "Addr_space.seal";
  if pager_active t then
    invalid_arg "Addr_space.seal: unresolved pager-backed pages";
  charge_vma_clones t;
  let tpl_pt = Page_table.seal t.pt ~cost:t.cost ~shared:(shared_ranges t) in
  as_shootdown t;
  clone_common t ~pt:tpl_pt ~committed_charge:0

(* Spawn a child space from a sealed template in O(shared subtrees).
   The commit charge is the only fallible step and runs first, so a
   failed spawn leaves the template (and the machine) untouched —
   the transactional invariant the fault-injection tests check. *)
let clone_from_sealed tpl ~commit_pages =
  alive tpl "Addr_space.clone_from_sealed";
  let p = params tpl in
  match Frame.commit tpl.frames commit_pages with
  | Error `Commit_limit -> Error `Commit_limit
  | Ok () ->
    charge_vma_clones tpl;
    if tpl.pager <> None then begin
      (* demand spawn: the child starts from an EMPTY table (one root
         node, charged as a single subtree) and records the sealed
         table as its fault-time backing — O(1) in the template's
         footprint; each page is fetched privately on first touch *)
      let child =
        clone_common tpl ~pt:(Page_table.create ~frames:tpl.frames)
          ~committed_charge:commit_pages
      in
      Cost.charge tpl.cost Zygote_subtree p.Cost.pt_node_copy;
      child.backing <- Some tpl.pt;
      child.backing_holes <- [];
      Ok (child, 0)
    end
    else begin
      let pt, subtrees = Page_table.clone_sealed tpl.pt ~cost:tpl.cost in
      Ok (clone_common tpl ~pt ~committed_charge:commit_pages, subtrees)
    end

(* True when no other table maps any resident page — no COW sharer, no
   template pin. Freezing demands this: a sole-owner source is the only
   holder of its frames, so pinning them transfers clean ownership to
   the template and discard can account for every page. *)
let sole_owner t =
  alive t "Addr_space.sole_owner";
  Page_table.sole_owner t.pt

(* Tear down a template handle: un-pin every resident frame back to a
   single counted reference, then drop the table, freeing them. Only
   legal once nothing alive depends on the template (the kernel's
   live-dependant count gates this with EBUSY). *)
let destroy t =
  if not t.dead then begin
    Cost.charge t.cost Proc_destroy (params t).Cost.proc_destroy;
    ignore (Page_table.clear t.pt);
    Frame.uncommit t.frames t.committed;
    t.committed <- 0;
    t.regions <- Region_map.empty;
    t.heap <- None;
    t.dead <- true
  end

let destroy_sealed t =
  if not t.dead then
    Page_table.fold_present t.pt ~init:() ~f:(fun () ~vpn:_ pte ->
        Frame.unpin t.frames (Pte.frame pte));
  destroy t

let fold_resident t ~init ~f =
  Page_table.fold_present t.pt ~init ~f:(fun acc ~vpn pte -> f acc ~vpn ~pte)

let fold_lazy t ~init ~f =
  Page_table.fold_lazy t.pt ~init ~f:(fun acc ~vpn pte -> f acc ~vpn ~pte)

(* A lazy-zygote child's backing table is a live table too: its pinned
   frames must be mapped by some leaf. *)
let audit_frames spaces =
  Page_table.audit
    (List.concat_map (fun t -> t.pt :: Option.to_list t.backing) spaces)

let resident_pages t = Page_table.present_count t.pt
let committed_pages t = t.committed
let vma_count t = Region_map.cardinal t.regions
let regions t = Region_map.to_list t.regions
let pt_nodes t = Page_table.node_count t.pt
