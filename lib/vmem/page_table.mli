(** 4-level radix page table over packed {!Pte} entries.

    This is the data structure whose wholesale duplication makes fork's
    cost proportional to the parent's address-space size: {!clone_cow}
    walks and copies every table page containing a present entry, which
    is exactly what a COW fork must do, while a freshly spawned process
    starts from an empty table.

    The harness-side representation is decoupled from the modelled cost:
    table nodes are reference-counted, so {!clone_cow_shared} can charge
    the full modelled copy while actually sharing untouched subtrees
    between parent and child, privatising them only when written. Range
    operations ({!map_lazy_range}, {!unmap_range}, {!protect_range})
    locate each leaf once and then work on its packed PTE array
    directly, making hot paths O(leaves), not O(pages).

    Frame references are owned by leaves (last-level table pages), not
    by tables: a leaf holds one {!Frame} reference on every present
    frame it maps, however many tables share it, so a frame's refcount
    is the number of distinct leaves mapping it (pinned frames are not
    counted; see {!audit}). A fork therefore moves no refcount; the
    first write through a shared leaf copies it, and the copy takes its
    own references; a leaf drops its references when the last table
    releases it ({!clear}). Callers that install or remove a present
    entry ({!map}, {!unmap}, {!unmap_range}, {!writable_leaf}) own the
    matching reference change.

    The host pays for a fork child's tables only where it writes. Leaf
    arrays and inner nodes' child arrays come from the machine's stacks
    of released ones ({!Frame.spares}; {!clear} gives them back), so
    privatising the path to a leaf allocates nothing on the major heap
    once the stacks are warm; and a fork pass skips every leaf no table
    has written to since the previous pass. *)

type t

val create : frames:Frame.t -> t
(** An empty table (one root node) whose leaves will hold references on
    frames of [frames]. Every table built from it ({!clone_cow},
    {!clone_cow_shared}, {!seal}, {!clone_sealed}) shares that
    machine. Every leaf array and inner child array a table creates,
    copies or clones, this root's included, comes from the machine's
    stack of released arrays of its kind ({!Frame.spares}) when it
    holds one; a stack never holds more arrays than the machine's peak
    count of live nodes of its kind. *)

val map : t -> vpn:int -> Pte.t -> unit
(** Install (or replace) the entry for virtual page [vpn], allocating
    intermediate table nodes as needed.
    @raise Invalid_argument if [vpn] is out of range or the PTE is
    absent. *)

val unmap : t -> vpn:int -> Pte.t
(** Remove and return the entry ({!Pte.absent} if none was present).
    Lazy (demand-paged) entries are removed too and returned. *)

val lookup : t -> vpn:int -> Pte.t
(** {!Pte.absent} when unmapped. *)

val update : t -> vpn:int -> (Pte.t -> Pte.t) -> bool
(** Apply a function to a *present* entry in place; returns false (and
    does nothing) when the page is unmapped. The function must return a
    present entry. *)

val present_count : t -> int
(** Number of present leaf entries. *)

val lazy_count : t -> int
(** Number of lazy (mapped-but-unbacked, demand-paged) entries. *)

val node_count : t -> int
(** Number of table pages this table logically owns, root included.
    Subtrees shared with a clone count towards both tables (each was
    charged for its copy at fork time). *)

val fold_present : t -> init:'a -> f:('a -> vpn:int -> Pte.t -> 'a) -> 'a
(** Iterate all present entries in increasing vpn order. *)

val fold_lazy : t -> init:'a -> f:('a -> vpn:int -> Pte.t -> 'a) -> 'a
(** Iterate all lazy (demand-paged) entries in increasing vpn order. *)

val map_lazy_range :
  t -> vpn:int -> n:int -> cookie0:int -> stride:int -> perm:Perm.t -> unit
(** Install [n] lazy (demand-paged) entries from [vpn], locating each
    leaf once: page [k] of the run carries cookie [cookie0 + k*stride]
    ([stride] 1 indexes consecutive image pages, 0 repeats a constant
    source cookie). No frame is allocated, no byte copied. The range
    must be wholly absent. @raise Invalid_argument on out-of-range
    vpns, negative cookie runs, or occupied slots. *)

val unmap_range : t -> vpn0:int -> vpn1:int -> f:(Pte.t -> unit) -> int
(** Remove every present entry in [[vpn0, vpn1]], calling [f] on each
    removed PTE in ascending vpn order; returns the number removed.
    Lazy entries in the range are dropped too (without calling [f] —
    there is no frame to release), but not counted in the result.
    Like {!unmap}, emptied leaf nodes stay allocated. *)

val protect_range : t -> vpn0:int -> vpn1:int -> f:(Pte.t -> Pte.t) -> int
(** Apply [f] to every present entry in [[vpn0, vpn1]] in place, in
    ascending vpn order; returns the number updated. [f] must return
    present entries. Equivalent to {!update} on every page of the
    range. *)

val find_leaf : t -> vpn:int -> Pte.t array
(** The leaf holding [vpn], as a read-only view (index it with
    {!Addr.table_index} [~level:0]), or the empty array when the leaf is missing — a walk
    that reads a missing leaf as all-absent entries allocates nothing. *)

val entry : Pte.t array -> int -> Pte.t
(** [entry leaf i] reads index [i] of a {!find_leaf} view: {!Pte.absent}
    throughout a missing (empty) leaf. *)

val writable_leaf : t -> vpn:int -> Pte.t array
(** The leaf holding [vpn], ready for writing: every node on its path is
    privatised and missing nodes are created, as {!map} would. Callers
    report their count changes with {!note_mapped} and
    {!note_resolved}. *)

val note_mapped : t -> int -> unit
(** Adjust the present-entry counter by [n] — for range fillers writing
    through {!writable_leaf}. *)

val note_resolved : t -> int -> unit
(** [n] lazy entries were overwritten by present ones: drop them from
    the lazy-entry counter. *)

val clone_cow : t -> cost:Cost.t -> t
(** Duplicate the table for a forked child: every table node is copied
    (charged as [pt_node_copy]), every present entry visited (charged as
    [pte_copy]); writable entries are downgraded to read-only+COW in
    {b both} parent and child, and each referenced frame's refcount is
    incremented (the copied leaves are new owners). Lazy entries are
    copied verbatim (also [pte_copy] — a PTE word the fork must copy,
    though no frame backs it): both sides keep the cookie and fault
    their page independently. The caller is responsible for the parent
    TLB flush this downgrade requires. This is the eager reference walk
    — the oracle the batched path is tested against. *)

val clone_cow_shared :
  t -> cost:Cost.t -> shared:(int * int * Perm.t) list -> t
(** Fork the table with lazy subtree sharing: charges exactly what
    {!clone_cow} would ([pt_node_copy] per node, [pte_copy] per present
    entry), but the child shares every node with the parent until one
    side writes. [shared] lists the vpn ranges [(lo, hi, perm)] of
    shared VMAs, ascending and disjoint: their pages are pinned at the
    region permission with COW clear (the {!clone_cow}-then-fixup
    result), all other writable pages are downgraded to read-only COW in
    both tables. One pass over the leaves rewrites entries in place;
    no frame's refcount changes, since each shared leaf keeps holding
    its references for both tables. The pass marks each leaf it
    transforms clean, and skips leaves already clean: a write through
    any table ({!map}, {!unmap}, {!update}, {!writable_leaf}, the range
    operations) unmarks the leaf it writes to, and nothing else writes
    to a leaf, so a clean leaf is still in post-fork form. A change to
    [shared] alone cannot make it stale: a VMA changes permission or
    sharing only by rewriting or dropping its present entries. The
    charges are computed from the table's counts, clean leaves
    included. The caller owes the TLB flush the downgrade requires. *)

val seal : t -> cost:Cost.t -> shared:(int * int * Perm.t) list -> t
(** {!clone_cow_shared} for a template: the same charges and
    transform, and the same pass pins each leaf's resident frames once
    the leaf is transformed or found clean ({!Frame.pin_many}), so the
    sealed table's frames become immortal and its clones never touch
    their counts. *)

val clone_sealed : t -> cost:Cost.t -> t * int
(** Clone a sealed template table for a zygote child in O(top-level
    subtrees): the frames behind it are immortal and the PTEs are
    already in post-fork form, so the clone bumps the root and charges
    one [pt_node_copy] per occupied root slot — cost proportional to the
    root fan-out (category [Zygote_subtree]), not the footprint.
    Returns the child table and the number of subtrees shared. *)

val clear : t -> int
(** Drop every entry; returns the number of present entries dropped.
    The table releases each node it reaches; a leaf whose last table
    this was decrements the refcount of every frame it maps, leaves in
    ascending vpn order, so frames are freed in the order a per-page
    walk would free them. Subtrees still shared with a clone survive
    under the other table, their frames' references with them — tearing
    down a fork child that wrote a few pages touches only the nodes it
    privatised. A released node's array goes back to the machine's
    stack of its kind, for the next node any of its tables makes. Used
    by exec and process teardown, and by an eager clone's rollback.

    The table is dropped, not emptied: its counts read 0, and any later
    operation that walks it ({!lookup}, {!map}, the folds and range
    operations, the clones, {!clear} itself, {!sole_owner}, {!audit})
    raises [Invalid_argument] rather than reach a leaf whose array may
    already serve another table. *)

val sole_owner : t -> bool
(** True when this table alone maps each of its resident pages: no
    node on the path to a present entry is shared with another table,
    and the frame's refcount is exactly 1 (no other leaf maps it and
    it is not pinned). Shared subtrees that map no present page do not
    count. *)

val audit : t list -> (unit, string) result
(** Check the ownership rule over every live table of one machine: for
    each frame mapped present by any leaf reachable from [tables], its
    refcount equals the number of distinct leaves mapping it (a leaf
    shared by several tables counts once), unless it is pinned; and
    every allocated frame, pinned ones included, is mapped by some leaf.
    Returns the lowest-numbered violation. Then check the machine's
    stacks of released arrays, leaves' then inner nodes': no array sits
    in a stack twice, and none is the array of a node reachable from
    [tables].
    @raise Invalid_argument if the tables belong to different
    machines. *)
