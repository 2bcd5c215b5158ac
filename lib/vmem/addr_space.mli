(** Simulated process address spaces: VMAs + page table + demand paging
    + copy-on-write.

    This module is where the paper's performance argument lives:
    {!clone_cow} (fork) walks the whole page table and its cost grows
    with the parent's resident set, while a spawned process starts from
    {!create} with an empty table at constant cost. All operations charge
    the shared {!Cost.t} meter. *)

type fault_error = [ `Segfault | `Perm_denied | `Out_of_memory ]

type t

val create :
  ?mmap_base:int ->
  ?batched:bool ->
  ?blame:Blame.t ->
  frames:Frame.t ->
  cost:Cost.t ->
  tlb:Tlb.t ->
  unit ->
  t
(** A fresh, empty address space. [mmap_base] is where unhinted mmaps are
    placed (the ASLR knob; default [0x7000_0000_0000]). [batched]
    (default true) selects the O(range) fast paths — leaf-level batch
    operations and lazily shared page-table subtrees on fork; [false]
    keeps the original per-page walks, which charge the identical
    modelled cost and serve as the test oracle for the batched paths.
    [blame] attaches a cost-attribution ledger: COW-break charges are
    then deferred-attributed to the space's current sharing origin (see
    {!set_blame_origin}). Clones inherit both.
    @raise Invalid_argument if [mmap_base] is not page-aligned or out of
    range. *)

val mmap_base : t -> int

val note_cpu : t -> cpu:int -> unit
(** Add [cpu] to the space's CPU mask: the simulated CPUs that may
    currently cache its translations, empty until first scheduled. The
    tracked-shootdown paths consult the mask, so fork/munmap/mprotect
    IPI only the CPUs that actually hold stale entries. The SMP
    scheduler calls this for the running CPU on every scheduling step of
    a thread of this space (not just on context switch — a full
    shootdown collapses the mask to the sender, and still-running remote
    CPUs must be re-observed immediately). *)

type pager = {
  fetch :
    Cost.t -> cookies:int array -> frames:Frame.frame array -> n:int -> unit;
      (** resolve the [n] lazy pages of one request: charge their
          fetches and fill [frames.(k)] from whatever source
          [cookies.(k)] names, for [k < n] (the cookie encoding is the
          installer's — typically [Ksim.Pager]'s — private convention) *)
  fetch_backing :
    Cost.t -> src:Frame.frame array -> dst:Frame.frame array -> n:int -> unit;
      (** pull the [n] template pages of one request for a lazy-zygote
          child: charge their fetches and copy [src.(k)] (a pinned
          template frame) into [dst.(k)], for [k < n] *)
  deny : unit -> bool;
      (** fault-injection hook, consulted once per pulled page
          (readahead included), in ascending page order and before that
          page's frame allocation; [true] fails that fetch like OOM *)
  readahead : int;
      (** extra consecutive pager-backed pages pulled per request *)
}
(** A simulated user-mode pager (see the module comment of
    {!Ksim.Pager}). A major fault makes one {e request}: the faulting
    page plus up to [readahead] following pager-backed pages of its
    VMA. The space calls [fetch] and [fetch_backing] at most once per
    request each, with every page of the request from that source, and
    never with [n = 0]. The arrays are buffers the space reuses,
    valid only during the call. Each closure is passed the faulting
    space's cost meter at call time, so a pager is built once,
    independently of any space, and installed into as many spaces as
    need it. *)

val set_pager : t -> pager option -> unit
(** Install (or remove) the pager consulted on first-touch faults of
    pager-backed pages. Must be installed before {!map_lazy}; a template
    sealed from a space with a pager spawns lazily
    ({!clone_from_sealed}). With no pager and no lazy pages every fault
    path is bit-identical to the eager simulator. *)

val pager_active : t -> bool
(** A pager is installed {e and} this space has pager-backed pages
    (lazy PTEs or a template backing table) — i.e. faults may reach the
    pager. *)

val lazy_pages : t -> int
(** Number of lazy (mapped-but-unbacked) PTEs. *)

val set_blame_origin : t -> int -> unit
(** Stamp the {!Blame} event id that most recently made this space's
    pages COW-shared (fork stamps both sides; freeze stamps the source;
    a zygote spawn stamps the child). Later COW breaks in this space are
    deferred-charged to that event — "most recent sharing event wins",
    which is sound because every sharing operation re-downgrades all
    resident private pages. *)

val mmap :
  ?addr:int ->
  ?shared:bool ->
  len:int ->
  perm:Perm.t ->
  kind:Vma.kind ->
  t ->
  (int, [> `No_space | `Overlap | `Commit_limit | `Invalid ]) result
(** Map [len] bytes (rounded up to pages). Without [addr] the lowest gap
    at or above [mmap_base] is used; with [addr] the exact (page-aligned)
    address is required. Private mappings charge commit. Returns the
    start address. Pages are demand-faulted, not populated. *)

val map_lazy :
  ?addr:int ->
  len:int ->
  perm:Perm.t ->
  kind:Vma.kind ->
  cookie0:int ->
  stride:int ->
  t ->
  (int, [> `No_space | `Overlap | `Commit_limit | `Invalid ]) result
(** Like {!mmap} (private mapping, commit charged as usual) but the
    pages are installed as {e lazy} PTEs — no frame allocated, no byte
    copied, O(ranges) — each carrying the pager cookie
    [cookie0 + k*stride] ([stride] 1 for consecutive image pages, 0 to
    repeat a constant cookie such as demand-zero). First touch is a
    major fault served by the installed pager.
    @raise Invalid_argument when no pager is installed. *)

val munmap : t -> addr:int -> len:int -> (unit, [> `Invalid ]) result
(** Unmap every whole page of [[addr, addr+len)]; mapped sub-ranges are
    released (frames decref'd, commit uncharged), holes are ignored, and
    straddling VMAs are split — POSIX semantics. Flushes remote TLBs. *)

val protect :
  t -> addr:int -> len:int -> perm:Perm.t -> (unit, [> `Invalid | `No_region ]) result
(** mprotect: change region and PTE permissions for a range that must be
    fully covered by existing VMAs. COW pages never regain write
    permission directly (the next write faults and copies). *)

val set_heap_base : t -> int -> unit
(** Install the heap start (done once by the program loader).
    @raise Invalid_argument if not page-aligned or already set. *)

val reset_heap_base : t -> unit
(** Rollback hook for failed image loads: forget the heap base again.
    No-op when none is set. @raise Invalid_argument if the heap has
    grown past its base (real state cannot be rolled back this way). *)

val brk : t -> int
(** Current program break; equals the heap base before any growth.
    @raise Invalid_argument if no heap base was set. *)

val set_brk : t -> int -> (unit, [> `Invalid | `Commit_limit | `Overlap ]) result
(** Grow or shrink the heap to end at the given (page-aligned) break. *)

val touch : t -> int -> (unit, fault_error) result
(** A write access to one address ([fault ~write:true]). *)

val touch_range : t -> addr:int -> len:int -> (int, fault_error) result
(** Write-touch every page of the range; returns the number of pages
    touched. Stops at the first fault error. Leaves exactly the state,
    charges and hook calls of {!touch} on each page in turn; a batched
    space gets there in one pass per leaf, demand-paged pages included,
    and each category's charges are summed into one charge per call.
    A major fault serves its request window (the faulting page and its
    readahead) as runs of one page source each, consulting [deny] and
    the frame allocator once per pulled page in page order, and writes
    each page's final state at once: the faulting page plain, the
    readahead pages the range reaches accessed and dirty (each a
    readahead hit), the rest prefetched. The walk resumes after the
    window. *)

val read_bytes : t -> addr:int -> len:int -> (string, fault_error) result
(** Read [len] bytes from [addr]. Each page faults ([~write:false]) at
    its first byte in the range, and a second time if the range holds
    another of its bytes — exactly the state and charges of one fault
    per byte, since a third access changes nothing. Every page
    faults before the result is allocated, so a failing range returns
    its error having allocated nothing of its length. *)

val write_bytes : t -> addr:int -> string -> (unit, fault_error) result
(** Write the string at [addr], page by page: each page's accesses as in
    {!read_bytes} ([~write:true]), then its bytes. Stops at the first
    failing page, whose bytes and all later ones are left unwritten. *)

val map_image_page :
  t -> addr:int -> perm:Perm.t -> ?data:string -> kind:Vma.kind ->
  unit -> (unit, [> `Out_of_memory | `Commit_limit | `Overlap | `Invalid ]) result
(** Loader path: map one populated page at [addr] (creating a one-page
    VMA), optionally initialised with [data] (at most a page). *)

val clone_cow : t -> (t, [> `Commit_limit | `Out_of_memory ]) result
(** Fork the address space: share the VMA list, copy the page table with
    COW downgrades (charging per node and per PTE), re-charge the
    parent's commit, shoot down the parent's TLB. The child inherits
    [mmap_base] — the layout-inheritance property that weakens ASLR. *)

val clone_eager : t -> (t, [> `Commit_limit | `Out_of_memory ]) result
(** Eager copy (no COW): every resident page is copied immediately. The
    ablation baseline for E9. *)

val seal : t -> t
(** Freeze the address space into an immutable template image: fork's
    own pass (charged at the fork categories — freezing is an
    honest O(footprint) one-time cost) downgrades writable pages to
    read-only COW, pins every resident frame into the immortal refcount
    class, and flushes the source TLB. The source space stays live (its
    later writes COW away from the pinned frames); the returned handle
    carries the sealed table, the inherited region map and heap marker,
    and a zero commit charge. *)

val clone_from_sealed :
  t -> commit_pages:int -> (t * int, [> `Commit_limit ]) result
(** Spawn a child space from a sealed template in O(shared subtrees):
    charge [commit_pages] of commit (the only fallible step, performed
    first so failure leaves the template untouched), then share the
    sealed table by bumping its root — one [Zygote_subtree] charge per
    occupied root slot, independent of footprint. Returns the child and
    the number of subtrees shared.

    When the template has a pager (it inherits its source's; see
    {!set_pager}) the spawn is lazy: the child instead starts from an
    empty table (one [Zygote_subtree] charge, subtree count 0) and
    records the sealed table as its fault-time {e backing}: each page
    is pulled privately by the pager on first touch, so spawn cost is
    independent even of the template's root fan-out and untouched pages
    are never instantiated. *)

val sole_owner : t -> bool
(** True when no other table maps any of this space's resident pages —
    the freeze precondition: no COW sharer or template pin may already
    hold the frames this space is about to seal. Since a leaf shared by
    several tables holds one reference for all of them, this asks both
    that no node on the path to a resident page is shared and that each
    resident frame's refcount is exactly 1 ({!Page_table.sole_owner});
    a shared subtree that maps no present page does not count, so the
    answer is the same as "every resident frame is mapped by this table
    alone". *)

val destroy_sealed : t -> unit
(** Tear down a template handle: un-pin every resident frame and free
    it. Only legal once nothing alive depends on the template (the
    kernel gates this with EBUSY). Idempotent. *)

val destroy : t -> unit
(** Release every frame and commit charge. Idempotent; using a destroyed
    address space raises [Invalid_argument]. *)

val audit_frames : t list -> (unit, string) result
(** {!Page_table.audit} over the tables of [spaces], which must share
    one {!Frame.t} (a lazy-zygote child's backing table included): each
    unpinned frame's refcount equals the number of distinct leaves
    mapping it, every allocated frame is mapped, and no live node's
    array sits in the machine's stacks of released ones. Pass every live
    space of the machine, sealed templates included; a frame held only
    by a space left out reads as a leak. *)

val fold_resident :
  t -> init:'a -> f:('a -> vpn:int -> pte:Pte.t -> 'a) -> 'a
(** Ascending fold over the present PTEs — introspection for tests
    (the batched-vs-reference oracle compares exact table contents)
    and debugging. *)

val fold_lazy : t -> init:'a -> f:('a -> vpn:int -> pte:Pte.t -> 'a) -> 'a
(** Ascending fold over the lazy PTEs (same oracle role). *)

val resident_pages : t -> int
val committed_pages : t -> int
val vma_count : t -> int
val regions : t -> (int * int * Vma.t) list
val pt_nodes : t -> int
