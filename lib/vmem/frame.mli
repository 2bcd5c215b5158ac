(** Physical frame allocator with reference counts and commit accounting.

    One {!t} models the physical memory of a simulated machine and is
    shared by every address space on it. Frames are reference-counted so
    copy-on-write sharing (fork) is explicit and checkable: a frame's
    count is the number of distinct page-table leaves that map it
    ({!Page_table}), whatever number of address spaces share those
    leaves. Frame
    *contents* are materialised lazily: an allocated frame reads as
    zeroes until the first byte is written, so a multi-GiB address-space
    sweep costs O(#frames) small integers, not O(bytes).

    Commit accounting models the policy choice the paper ties to fork:
    under [Strict] accounting the sum of committed private pages may not
    exceed physical memory, so forking a large process fails even though
    COW would rarely copy the pages; [Overcommit] waives the check, which
    is exactly the Linux-style behaviour the paper blames fork for
    encouraging (and which surfaces later as OOM kills). [Demand] also
    waives the check — admission is identical to [Overcommit] — but is
    the kernel's signal that backing failures at first-touch faults
    should invoke the OOM-killer victim chooser rather than surface as
    ENOMEM to the toucher (see [Ksim.Kernel]). *)

type policy = Strict | Overcommit | Demand

type t

type frame = int
(** Frame number in [[0, total)]. *)

val create : ?policy:policy -> frames:int -> unit -> t
(** [create ~frames ()] models a machine with [frames] physical frames.
    Default policy is [Strict]. The refcount table (one byte per frame)
    covers only the frames handed out so far: it starts at 1,024 frames
    and doubles, up to [frames], as fresh frames pass its end, so boot
    does not pay for the whole machine's memory.
    @raise Invalid_argument if [frames <= 0]. *)

type 'a stack = { mutable arrays : 'a array array; mutable top : int }
(** A stack of released arrays, [arrays.(0 .. top-1)]. *)

type spares = { leaves : int stack; inners : Pt_node.t option stack }
(** The machine's stacks of released page-table arrays, which
    {!Page_table} pushes and pops: leaf arrays of packed PTEs, and inner
    nodes' child arrays. Host memory only, no simulated frame, and they
    die with the machine. *)

val spares : t -> spares

val policy : t -> policy
val set_policy : t -> policy -> unit

val set_deny_alloc : t -> (unit -> bool) option -> unit
(** Install (or clear) a fault-injection hook consulted once per frame
    allocation, batched paths included; returning [true] fails that
    allocation with [`Out_of_memory]. Used by [Ksim.Fault]. *)

val set_deny_commit : t -> (unit -> bool) option -> unit
(** Like {!set_deny_alloc} for {!commit}: consulted once per call that
    charges a positive number of pages; [true] fails it with
    [`Commit_limit] regardless of policy. *)

val used : t -> int
val free : t -> int

val alloc : t -> (frame, [> `Out_of_memory ]) result
(** Allocate a zero-filled frame with refcount 1. *)

val take : t -> frame
(** {!alloc} without the result box: the frame, or -1 where {!alloc}
    fails. Allocates nothing on the host — a demand-paged fault pulls
    pages by the million. *)

val alloc_upto : t -> into:frame array -> int -> int
(** [alloc_upto t ~into n] allocates up to [n] frames (each refcount 1)
    into [into.(0)] .. [into.(k-1)] and returns [k], in exactly the
    order [n] successive {!alloc} calls would have produced — recycled
    frames newest-freed first, then fresh ones ascending. [k] is less
    than [n] when memory runs out (possibly 0); no error is raised. The
    caller's buffer keeps a demand fill from allocating a frame array.
    @raise Invalid_argument unless [0 <= n <= Array.length into]. *)

val incref : t -> frame -> unit
(** @raise Invalid_argument on an unallocated frame. *)

val decref : t -> frame -> bool
(** Drop one reference; returns [true] when this freed the frame (its
    contents are discarded). @raise Invalid_argument on an unallocated
    frame. *)

val incref_many : t -> frame array -> int -> unit
(** [incref_many t fs n] is {!incref} on [fs.(0..n-1)] in order, in one
    call (a privatised page-table leaf takes a reference on every frame
    it maps).
    @raise Invalid_argument like {!incref}, or on a bad [n]. *)

val decref_many : t -> frame array -> int -> unit
(** [decref_many t fs n] is {!decref} on [fs.(0..n-1)] in order, in one
    call, discarding the per-frame results (teardown drops a released
    leaf's references at once). @raise Invalid_argument like {!decref},
    or on a bad [n]. *)

val refcount : t -> frame -> int
(** 0 for unallocated frames; [max_int] for pinned (immortal) frames. *)

val pin : t -> frame -> unit
(** Move the frame into the immortal refcount class: {!incref} and
    {!decref} become no-ops and {!refcount} reads as [max_int], so COW
    breaks always copy away from it and nothing can free it. Sealed
    templates pin their pages so zygote children never touch the
    per-frame counts. Idempotent. @raise Invalid_argument on an
    unallocated frame. *)

val pin_many : t -> frame array -> int -> unit
(** [pin_many t fs n] is {!pin} on [fs.(0..n-1)] (a seal pins every
    resident frame, a leaf at a time). @raise Invalid_argument like
    {!pin}, or on a bad [n]. *)

val unpin : t -> frame -> unit
(** Return a pinned frame to a normally-counted single reference
    (refcount 1) — the template-teardown path, after which a plain
    {!decref} frees it. @raise Invalid_argument if the frame is not
    pinned. *)

val is_pinned : t -> frame -> bool

val pinned : t -> int
(** Number of frames currently in the immortal class. *)

val commit : t -> int -> (unit, [> `Commit_limit ]) result
(** [commit t pages] charges [pages] of commit. Fails under [Strict]
    when the new total would exceed the frame count; always succeeds under
    [Overcommit]. *)

val uncommit : t -> int -> unit
(** Releases commit charge; clamps at zero rather than going negative. *)

val committed : t -> int

val blit_string : t -> frame -> off:int -> ?pos:int -> ?len:int -> string -> unit
(** Write bytes [pos..pos+len) of the string (default: all of it) at
    page offset [off], materialising the frame contents on first write.
    @raise Invalid_argument on a bad frame or range. *)

val read_string : t -> frame -> off:int -> len:int -> string
(** Reads zeroes from never-written frames. *)

val read_into : t -> frame -> off:int -> len:int -> Bytes.t -> pos:int -> unit
(** [read_into t f ~off ~len buf ~pos] copies [len] bytes from page
    offset [off] into [buf] at [pos] (zeroes from a never-written
    frame). @raise Invalid_argument on a bad frame or range. *)

val copy_contents : t -> src:frame -> dst:frame -> unit
(** Copy page contents (used when breaking COW). Never-written sources
    leave [dst] untouched (both read as zeroes); a source above every
    frame that was ever written costs no table lookup. *)

val unshare_many : t -> frame array -> int -> int
(** [unshare_many t fs n] breaks the sharing of [fs.(0..n-1)] in order,
    one frame at a time: a frame whose {!refcount} is 1 is kept; any
    other is replaced in [fs] by a fresh frame holding a copy of its
    contents, and loses one reference. Stops at the first replacement
    the deny hook or the machine refuses, and returns how many frames it
    handled. Frame numbers, contents, counts, the deny hook's draws (one
    per replacement, as {!take} makes them) and the stop point are those
    of the per-page {!refcount} / {!take} / {!copy_contents} / {!decref}
    sequence of a COW break. The call is one loop that makes those
    transitions itself, calling no helper per frame except
    {!copy_contents} for a frame that was ever written: a write to a run
    of COW pages makes no per-page call into this module.
    @raise Invalid_argument like {!copy_contents} on an unallocated
    frame, or on a bad [n]. *)
