type fault_error = [ `Segfault | `Perm_denied | `Out_of_memory ]

(* A simulated user-mode pager: supplies the frame contents (and the
   modelled fetch cost) for pager-backed pages on their first touch.
   [fetch] resolves a lazy PTE's cookie; [fetch_backing] copies a page
   out of a template backing table; both take the faulting space's cost
   meter as an argument, so one pager value can serve every space it is
   installed into whatever meter each space charges.
   [deny] is the fault-injection hook, consulted once per pulled page
   (readahead included); [readahead] is how many immediately-following
   pager-backed pages one request also pulls in. *)
type pager = {
  fetch : Cost.t -> cookie:int -> frame:Frame.frame -> unit;
  fetch_backing : Cost.t -> src:Frame.frame -> dst:Frame.frame -> unit;
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
    pt = Page_table.create ();
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

let frames t = t.frames
let cost t = t.cost
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

let break_cow t ~vpn ~pte ~region_perm =
  let p = params t in
  let frame = Pte.frame pte in
  if Frame.refcount t.frames frame = 1 then begin
    (* last sharer: take the page back in place *)
    Cost.tally t.cost Fault_cow_reuse;
    ignore
      (Page_table.update t.pt ~vpn (fun pte ->
           Pte.with_cow (Pte.with_perm pte region_perm) false));
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
      Page_table.map t.pt ~vpn (Pte.make ~frame:fresh ~perm:region_perm ());
      invalidate_one t;
      Ok ()
  end

(* Where the pager would source the (non-present) page at [vpn], if
   anywhere: a lazy PTE carries its fetch cookie; a wholly-absent page
   over the backing table (outside any munmap hole) is template-backed;
   anything else is ordinary demand-zero. *)
let pager_src t ~vpn ~pte =
  if Pte.lazy_ pte then Some (`Cookie (Pte.cookie pte))
  else
    match t.backing with
    | None -> None
    | Some bpt ->
      if List.exists (fun (lo, hi) -> vpn >= lo && vpn <= hi) t.backing_holes
      then None
      else
        let b = Page_table.lookup bpt ~vpn in
        if Pte.present b then Some (`Backing (Pte.frame b)) else None

(* Pull one page through the pager: allocate a frame, let the pager
   charge its fetch and fill the contents, install the entry present at
   the region permission. Failure (denied fetch or no frame) leaves the
   entry exactly as it was — a lazy PTE stays lazy, a backing hit stays
   absent — so a failed first touch rolls back cleanly. *)
let pager_fill t pg ~vpn ~perm ~src ~prefetched =
  if pg.deny () then Error `Out_of_memory
  else
    match Frame.alloc t.frames with
    | Error `Out_of_memory -> Error `Out_of_memory
    | Ok frame ->
      (match src with
      | `Cookie c -> pg.fetch t.cost ~cookie:c ~frame
      | `Backing src -> pg.fetch_backing t.cost ~src ~dst:frame);
      let pte = Pte.make ~frame ~perm () in
      Page_table.map t.pt ~vpn
        (if prefetched then Pte.mark_prefetched pte else pte);
      Ok ()

(* First-touch (major) fault on a pager-backed page: one pager request
   serves the faulting page plus up to [readahead] immediately-following
   pager-backed pages of the same VMA, installed with the prefetched
   mark (their later first access tallies a readahead hit). Readahead
   stops silently at the first non-pager-backed page, denied fetch or
   allocation failure — only the faulting page's failure surfaces.
   Charges carry the deferred-blame context: a zygote child's fetches
   bill the spawn event that made its pages lazy. *)
let pager_fault t pg ~region_perm ~region_stop ~vpn ~src =
  let p = params t in
  deferred_blame t (fun () ->
      Cost.charge t.cost Fault_base p.Cost.fault_base;
      Cost.charge t.cost Pager_request p.Cost.pager_request;
      match pager_fill t pg ~vpn ~perm:region_perm ~src ~prefetched:false with
      | Error _ as e -> e
      | Ok () ->
        let vpn_stop = min (Addr.page_number (region_stop - 1)) (vpn + pg.readahead) in
        (try
           for v = vpn + 1 to vpn_stop do
             let pte = Page_table.lookup t.pt ~vpn:v in
             if Pte.present pte then raise Exit;
             match pager_src t ~vpn:v ~pte with
             | None -> raise Exit
             | Some src -> (
               match
                 pager_fill t pg ~vpn:v ~perm:region_perm ~src ~prefetched:true
               with
               | Error `Out_of_memory -> raise Exit
               | Ok () -> ())
           done
         with Exit -> ());
        Ok ())

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
          match pager_src t ~vpn ~pte with
          | Some src -> (
            match t.pager with
            | None ->
              invalid_arg "Addr_space.fault: pager-backed page but no pager"
            | Some pg ->
              pager_fault t pg ~region_perm:vma.Vma.perm ~region_stop:rstop
                ~vpn ~src)
          | None ->
            Cost.charge t.cost Fault_base p.Cost.fault_base;
            demand_fill t ~vpn ~perm:vma.Vma.perm
        end
        else if write && not (Pte.perm pte).Perm.write then begin
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

(* One leaf's worth of frame numbers, reused by every demand fill on
   this domain: a fill allocates no frame array, which would be a
   major-heap block per leaf. *)
let fill_frames =
  Domain.DLS.new_key (fun () -> Array.make Addr.entries_per_table 0)

(* Batched write-fault of [vpn0, vpn1], all inside one VMA whose
   permission allows writes: the same per-page state transitions as
   [fault ~write:true], but each leaf is located once and the cost
   meter is charged once per category for the whole range (all cost
   parameters are integer-valued floats, so one charge of n*c equals n
   charges of c exactly, and event counts are summed either way). *)
let touch_covered_batched t ~rperm ~vpn0 ~vpn1 ~count =
  let p = params t in
  let n_base = ref 0 and n_zero = ref 0 and n_reuse = ref 0 in
  let n_copy = ref 0 and n_invlpg = ref 0 in
  (* COW-break work is tallied apart from ordinary fills so its charges
     can carry the deferred-blame context; splitting one charge of
     (a+b)*c into a*c and b*c is exact (integer-valued params), so the
     meter's totals and event counts are unchanged. *)
  let n_base_cow = ref 0 and n_invlpg_cow = ref 0 in
  let flush_charges () =
    if !n_base > 0 then
      Cost.charge ~n:!n_base t.cost Fault_base
        (p.Cost.fault_base *. float_of_int !n_base);
    if !n_zero > 0 then
      Cost.charge ~n:!n_zero t.cost Fault_zero_fill
        (p.Cost.frame_zero *. float_of_int !n_zero);
    invalidate t ~n:!n_invlpg;
    if !n_base_cow > 0 || !n_reuse > 0 || !n_copy > 0 || !n_invlpg_cow > 0
    then
      deferred_blame t (fun () ->
          if !n_base_cow > 0 then
            Cost.charge ~n:!n_base_cow t.cost Fault_base
              (p.Cost.fault_base *. float_of_int !n_base_cow);
          if !n_reuse > 0 then
            Cost.charge ~n:!n_reuse t.cost Fault_cow_reuse 0.0;
          if !n_copy > 0 then
            Cost.charge ~n:!n_copy t.cost Fault_cow_copy
              (p.Cost.frame_copy *. float_of_int !n_copy);
          invalidate t ~n:!n_invlpg_cow)
  in
  let oom () =
    flush_charges ();
    raise (Fault_stop `Out_of_memory)
  in
  (* demand-fill a run of [n] absent pages starting at [entries.(i0)];
     the failing page of a short allocation still pays fault_base, like
     the per-page walk, and a wholly-failed run creates no leaf *)
  let fill ~n ~get_entries ~i0 =
    let frames = Domain.DLS.get fill_frames in
    let m = Frame.alloc_upto t.frames ~into:frames n in
    n_base := !n_base + m;
    n_zero := !n_zero + m;
    if m > 0 then begin
      let entries = get_entries () in
      Pte.blit_run ~frames ~n:m ~perm:rperm entries ~at:i0;
      Page_table.note_mapped t.pt m;
      count := !count + m
    end;
    if m < n then begin
      incr n_base;
      oom ()
    end
  in
  Page_table.fold_leaves t.pt ~vpn0 ~vpn1 ~init:()
    ~missing:(fun () ~vpn ~span ~materialize ->
      fill ~n:span ~get_entries:materialize
        ~i0:(vpn land (Addr.entries_per_table - 1)))
    ~leaf:(fun () ~base:_ ~entries:_ ~lo ~hi ~writable ->
      let entries = writable () in
      let i = ref lo in
      while !i <= hi do
        let pte = entries.(!i) in
        if not (Pte.present pte) then begin
          let j = ref (!i + 1) in
          while !j <= hi && not (Pte.present entries.(!j)) do
            incr j
          done;
          fill ~n:(!j - !i) ~get_entries:(fun () -> entries) ~i0:!i;
          i := !j
        end
        else begin
          (if (Pte.perm pte).Perm.write then
             (* plain write hit: reference bits only, no charge *)
             entries.(!i) <- Pte.mark_dirty (Pte.mark_accessed pte)
           else if Pte.cow pte then begin
             let frame = Pte.frame pte in
             incr n_base_cow;
             if Frame.refcount t.frames frame = 1 then begin
               (* last sharer: take the page back in place *)
               incr n_reuse;
               entries.(!i) <- Pte.with_cow (Pte.with_perm pte rperm) false;
               incr n_invlpg_cow
             end
             else begin
               match Frame.alloc t.frames with
               | Error `Out_of_memory -> oom ()
               | Ok fresh ->
                 incr n_copy;
                 Frame.copy_contents t.frames ~src:frame ~dst:fresh;
                 ignore (Frame.decref t.frames frame);
                 entries.(!i) <- Pte.make ~frame:fresh ~perm:rperm ();
                 incr n_invlpg_cow
             end
           end
           else begin
             (* stale protection: refresh in place *)
             incr n_base;
             entries.(!i) <- Pte.with_perm pte rperm;
             incr n_invlpg
           end);
          incr count;
          incr i
        end
      done);
  flush_charges ()

let touch_range_batched t ~addr ~len =
  let vpn1 = Addr.page_number (addr + len - 1) in
  let count = ref 0 in
  try
    let vpn = ref (Addr.page_number addr) in
    while !vpn <= vpn1 do
      let a = Addr.addr_of_page !vpn in
      if not (Addr.valid a) then raise (Fault_stop `Segfault);
      match Region_map.find_containing a t.regions with
      | None -> raise (Fault_stop `Segfault)
      | Some (_, e, vma) ->
        if not (Perm.allows vma.Vma.perm { Perm.none with Perm.write = true })
        then raise (Fault_stop `Perm_denied);
        let sub_end = min vpn1 (Addr.page_number (e - 1)) in
        touch_covered_batched t ~rperm:vma.Vma.perm ~vpn0:!vpn ~vpn1:sub_end
          ~count;
        vpn := sub_end + 1
    done;
    Ok !count
  with Fault_stop err -> Error err

let touch_range t ~addr ~len =
  if len <= 0 then Ok 0
  else if t.batched && not (pager_active t) then begin
    (* the per-page walk hits [fault]'s liveness check on page one.
       With demand paging live the per-page reference walk is used even
       in batched mode: readahead grouping makes the charge sequence
       state-dependent, and the per-page walk IS that sequence — the
       batched leaf pass would have to replay it page by page anyway
       (total charges and event counts are identical either way, since
       every cost parameter is an integer-valued float). *)
    alive t "Addr_space.fault";
    touch_range_batched t ~addr ~len
  end
  else begin
    let vpn0 = Addr.page_number addr in
    let vpn1 = Addr.page_number (addr + len - 1) in
    let rec go vpn n =
      if vpn > vpn1 then Ok n
      else
        match touch t (Addr.addr_of_page vpn) with
        | Ok () -> go (vpn + 1) (n + 1)
        | Error e -> Error e
    in
    go vpn0 0
  end

let write_byte t addr v =
  match fault t ~addr ~write:true with
  | Error e -> Error e
  | Ok () ->
    let pte = Page_table.lookup t.pt ~vpn:(Addr.page_number addr) in
    Frame.write_byte t.frames (Pte.frame pte) ~off:(Addr.page_offset addr) v;
    Ok ()

let read_byte t addr =
  match fault t ~addr ~write:false with
  | Error e -> Error e
  | Ok () ->
    let pte = Page_table.lookup t.pt ~vpn:(Addr.page_number addr) in
    Ok (Frame.read_byte t.frames (Pte.frame pte) ~off:(Addr.page_offset addr))

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
        Page_table.clone_cow_shared t.pt ~frames:t.frames ~own:Frame.incref
          ~own_many:Frame.incref_many ~cost:t.cost ~shared:(shared_ranges t)
      else begin
        let pt = Page_table.clone_cow t.pt ~frames:t.frames ~cost:t.cost in
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
    let child_pt = Page_table.create () in
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
      ignore (Page_table.clear child_pt ~frames:t.frames);
      Frame.uncommit t.frames t.committed;
      Error `Out_of_memory
    | Ok () -> Ok (clone_common t ~pt:child_pt ~committed_charge:t.committed))

(* Template (zygote) support.

   [seal] turns a warmed address space into an immutable template image:
   fork's own leaf pass (charged at exactly the fork categories — the
   freeze is an honest O(footprint) one-time cost) downgrades writable
   pages to read-only COW and, with {!Frame.pin} as its ownership
   operation, pins every resident frame immortal, so per-child spawns
   never touch those refcounts. The source keeps running; its later
   writes COW away from the pinned frames. The returned space is the
   template's handle: it carries the sealed table, the region map and
   heap marker children inherit, and a zero commit charge (each child
   re-charges its own commit; the template object owns frames, not
   commit). *)
let seal t =
  alive t "Addr_space.seal";
  if pager_active t then
    invalid_arg "Addr_space.seal: unresolved pager-backed pages";
  charge_vma_clones t;
  let tpl_pt =
    Page_table.clone_cow_shared t.pt ~frames:t.frames ~own:Frame.pin
      ~own_many:Frame.pin_many ~cost:t.cost ~shared:(shared_ranges t)
  in
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
      let child = clone_common tpl ~pt:(Page_table.create ()) ~committed_charge:commit_pages in
      Cost.charge tpl.cost Zygote_subtree p.Cost.pt_node_copy;
      child.backing <- Some tpl.pt;
      child.backing_holes <- [];
      Ok (child, 0)
    end
    else begin
      let pt, subtrees = Page_table.clone_sealed tpl.pt ~cost:tpl.cost in
      Ok (clone_common tpl ~pt ~committed_charge:commit_pages, subtrees)
    end

(* True when every resident frame has refcount exactly 1 — no COW
   sharer, no template pin. Freezing demands this: a sole-owner source
   is the only holder of its frames, so pinning them transfers clean
   ownership to the template and discard can account for every page. *)
let sole_owner t =
  alive t "Addr_space.sole_owner";
  match
    Page_table.fold_present t.pt ~init:() ~f:(fun () ~vpn:_ pte ->
        if Frame.refcount t.frames (Pte.frame pte) <> 1 then raise Exit)
  with
  | () -> true
  | exception Exit -> false

(* Tear down a template handle: un-pin every resident frame back to a
   single counted reference, then drop the table, freeing them. Only
   legal once nothing alive depends on the template (the kernel's
   live-dependant count gates this with EBUSY). *)
let destroy t =
  if not t.dead then begin
    Cost.charge t.cost Proc_destroy (params t).Cost.proc_destroy;
    ignore (Page_table.clear t.pt ~frames:t.frames);
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

let resident_pages t = Page_table.present_count t.pt
let committed_pages t = t.committed
let vma_count t = Region_map.cardinal t.regions
let regions t = Region_map.to_list t.regions
let pt_nodes t = Page_table.node_count t.pt
