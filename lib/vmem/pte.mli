(** Packed page-table entries.

    A PTE is a single immutable [int]: bit 0 = present, bits 1-3 =
    read/write/exec, bit 4 = copy-on-write, bit 5 = accessed, bit 6 =
    dirty, bit 7 = lazy/prefetched (see below); the frame number
    occupies the bits above bit 7. Packing keeps a fully-mapped
    multi-GiB address space cheap (one int per page).

    Demand paging adds a third entry state besides absent and present:
    a {e lazy} entry ([bit 7] set, present clear) records permissions
    and a pager {e cookie} (in the frame field) for a page that has
    been mapped but never backed — the first touch is a major fault
    that asks the pager to supply the frame. Because lazy entries are
    not present, every present-gated walk (refcounts, {!clear},
    the batch helpers) skips them without change. On a {e present}
    entry, the same bit 7 means "installed by readahead": the first
    real access clears it and counts as a readahead hit. *)

type t = int

val absent : t
val present : t -> bool

val make : frame:Frame.frame -> perm:Perm.t -> ?cow:bool -> unit -> t
(** A fresh present entry; [cow] defaults to false.
    @raise Invalid_argument on a negative frame. *)

val frame : t -> Frame.frame
val perm : t -> Perm.t
val writable : t -> bool
(** The write permission bit alone: [(perm t).Perm.write] without
    building the record. *)

val cow : t -> bool
val accessed : t -> bool
val dirty : t -> bool

val lazy_ : t -> bool
(** True for lazy (mapped, unbacked) entries only — never for absent
    or present ones. *)

val cookie : t -> int
(** The pager cookie of a lazy entry (reads the frame field). *)

val prefetched : t -> bool
(** True for a present entry installed by pager readahead and not yet
    accessed. *)

val mark_prefetched : t -> t
val clear_prefetched : t -> t

val with_perm : t -> Perm.t -> t
val with_cow : t -> bool -> t
val with_frame : t -> Frame.frame -> t
val mark_accessed : t -> t
val mark_dirty : t -> t

(** {1 Batch helpers}

    The range paths of the simulator process pages by the million;
    these keep the per-page bit work inside this module (one call per
    leaf instead of one cross-module call per page). Each is exactly
    equivalent to the corresponding per-page loop. *)

val blit_run : frames:int array -> n:int -> perm:Perm.t -> t array -> at:int -> unit
(** [blit_run ~frames ~n ~perm dst ~at] writes
    [make ~frame:frames.(k) ~perm ()] into [dst.(at + k)] for
    [k < n]. @raise Invalid_argument on out-of-bounds slices. *)

val frames_of_run : t array -> lo:int -> hi:int -> dst:int array -> int
(** Gather the frame numbers of the present entries of
    [src.(lo..hi)] into [dst] (from index 0); returns how many were
    present. [dst] must have room for [hi - lo + 1]. *)

val cow_run_end : t array -> lo:int -> hi:int -> int
(** The end of the run of present, read-only COW entries of
    [src.(lo..hi)] that starts at [lo]: the first index from [lo] whose
    entry is not one, or [hi + 1]. *)

val unshare_run :
  t array -> at:int -> frames:Frame.frame array -> n:int -> perm:Perm.t -> int
(** The entries' half of breaking a run of COW entries, after
    {!Frame.unshare_many} has handled the run's frames ([frames.(k)] for
    [dst.(at + k)], [k < n]): an entry whose frame was kept becomes
    [with_cow (with_perm pte perm) false], its other bits kept; one
    whose frame was replaced becomes [make ~frame:frames.(k) ~perm ()].
    Returns the number kept. @raise Invalid_argument on out-of-bounds
    slices. *)

val downgrade_run : t array -> lo:int -> hi:int -> unit
(** The fork pass over one leaf slice: downgrade every present writable
    entry of [src.(lo..hi)] in place to read-only COW (the
    accessed/dirty bits survive). *)

val lazy_blit_run :
  cookie0:int -> stride:int -> n:int -> perm:Perm.t -> t array -> at:int -> unit
(** [lazy_blit_run ~cookie0 ~stride ~n ~perm dst ~at] writes
    [make_lazy ~cookie:(cookie0 + k*stride) ~perm ()] into
    [dst.(at + k)] for [k < n], building no cookie array.
    @raise Invalid_argument on out-of-bounds slices or a negative
    [cookie0] or [stride]. *)

(** {2 A pager request window}

    A major fault serves its window (the faulting page and the
    readahead after it) as sub-runs of one page source each: find the
    run, pull its frames, gather its sources, write its entries. An
    empty array reads as all-absent entries, like a missing leaf's
    view. *)

val lazy_run_end : t array -> lo:int -> hi:int -> int
(** The end of the run of lazy entries of [src.(lo..hi)] that starts at
    [lo]: the first index from [lo] whose entry is not lazy, or
    [hi + 1]. *)

val backed_run_end : own:t array -> back:t array -> lo:int -> hi:int -> int
(** The end of the run from [lo] of pages that a template backs: absent
    (neither present nor lazy) in [own] and present in [back]. The first
    index from [lo] that is not one, or [hi + 1]. *)

val sources_of_run : t array -> lo:int -> n:int -> dst:int array -> at:int -> unit
(** [sources_of_run src ~lo ~n ~dst ~at] writes the frame field of
    [src.(lo + k)] into [dst.(at + k)] for [k < n]: a lazy entry's
    {!cookie}, a present entry's {!frame}.
    @raise Invalid_argument on out-of-bounds slices. *)

val fetched_run :
  t array -> at:int -> frames:Frame.frame array -> off:int -> n:int ->
  perm:Perm.t -> fault:int -> hi:int -> unit
(** Install the [n] pages a request pulled into [dst.(at..at+n-1)],
    page [at + k] on frame [frames.(off + k)], each in the state a
    per-page walk of a write touch up to index [hi] leaves it:
    [make ~frame ~perm ()] at index [fault] (the faulting page), also
    accessed and dirty at the other indices up to [hi] (readahead pages
    the touch reaches, each a readahead hit), {!mark_prefetched} past
    [hi]. @raise Invalid_argument on out-of-bounds slices. *)
