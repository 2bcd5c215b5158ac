(** Cycle-cost model for the simulated kernel.

    Every micro-operation the simulator performs (copying a page-table
    page, servicing a fault, flushing a TLB, ...) charges a configurable
    number of cycles to a {!t} meter, broken down by category. The
    default constants are order-of-magnitude figures for a ~3 GHz x86
    server and are calibrated against the real Figure-1 sweep in
    EXPERIMENTS.md; the *shape* of every simulated result (linear vs
    constant, crossover position) is insensitive to modest changes in
    them, which is the property the paper's argument rests on. *)

type params = {
  syscall_base : float;  (** kernel entry/exit + dispatch *)
  proc_create : float;  (** allocate and link a PCB *)
  proc_destroy : float;
  vma_clone : float;  (** duplicate one VMA record on fork *)
  pt_node_copy : float;  (** copy one page-table page (512 entries) *)
  pte_copy : float;  (** visit/copy one present PTE on fork *)
  fault_base : float;  (** page-fault entry + lookup *)
  frame_zero : float;  (** zero-fill a 4 KiB frame *)
  frame_copy : float;  (** copy a 4 KiB frame (COW break) *)
  tlb_flush : float;  (** local full flush *)
  tlb_shootdown : float;  (** IPI + remote flush, per remote CPU *)
  tlb_invlpg : float;  (** single-page invalidation *)
  exec_base : float;  (** image open + headers + loader setup *)
  exec_per_page : float;  (** map one text/data page (no I/O model) *)
  fd_clone : float;  (** duplicate one fd-table slot *)
  pager_request : float;
      (** dispatch one first-touch fault batch to the user-mode pager
          (upcall + reply; amortised over the batch by readahead) *)
  pager_fetch_image : float;
      (** pager pulls one page from the executable image *)
  pager_fetch_template : float;
      (** pager copies one page from a sealed template *)
}

val default : params

val cycles_to_ns : float -> float

type cat =
  | Syscall | Proc_create | Proc_destroy
  | Fork_vma | Fork_pt_node | Fork_pte | Fork_eager_copy | Zygote_subtree
  | Fault_base | Fault_zero_fill | Fault_cow_copy | Fault_cow_reuse
  | Pager_request | Pager_fetch_image
  | Pager_fetch_template | Pager_readahead_hit
  | Tlb_flush | Tlb_shootdown | Tlb_invlpg
  | Exec_base | Exec_load_page | Fd_inherit
(** The meter's categories; {!info} gives each its slot, report name and
    group. [Fault_cow_reuse] (a COW break resolved in place) and
    [Pager_readahead_hit] are tallied at 0 cycles. *)

type info = {
  idx : int;  (** declaration position: the category's slot in a {!t} *)
  name : string;  (** report name, e.g. ["fault:cow-copy"] *)
  group : string;  (** subsystem group, one of {!group_order} *)
}

val info : cat -> info
(** The one category table. Allocates nothing. *)

val all : cat list
(** Every category, in declaration order. *)

val group_order : string list
(** The subsystem groups in display order:
    pt-copy, fault, pager, frame-copy, tlb, exec, other. The groups
    partition the categories, so group sums equal the headline cycle
    count. *)

type t
(** A per-category ledger: cycles and event counts per category, plus a
    running total. The kernel's meter, each {!Ksim.Kstat} per-pid
    ledger and each {!Blame} bucket is one. *)

val create : ?params:params -> unit -> t
val params : t -> params

val charge : ?n:int -> t -> cat -> float -> unit
(** [charge m cat cycles] adds [cycles] (may be a multiple of a
    [params] field) under [cat], bumps the category's event count by
    [n] (default 1; pass the multiplicity when one call accounts for
    many identical operations, e.g. the PTEs copied by a fork), then
    calls the observer. Negative or NaN cycles and negative counts
    raise [Invalid_argument]. *)

val tally : t -> cat -> unit
(** [tally m cat] records an event that costs no cycles — equivalent to
    [charge ~n:1 m cat 0.]. Used for counters such as in-place COW
    reuse where the interesting datum is the count. *)

val add : t -> cat -> n:int -> float -> unit
(** The unchecked part of {!charge}: add to the ledger, call no
    observer. Allocates nothing. For ledgers that copy a charge
    already checked by {!charge}. *)

val set_observer : t -> (cat -> n:int -> float -> unit) option -> unit
(** [set_observer m (Some f)] arranges for [f cat ~n cycles] to be
    called on every subsequent {!charge}/{!tally}, after the meter has
    been updated. The kernel uses this to feed its per-pid statistics;
    at most one observer is active at a time. [None] removes it. *)

val total : t -> float
(** Every cycle charged, summed in charge order. *)

val get : t -> cat -> float
(** Cycles charged under one category (0. if never charged). *)

val count : t -> cat -> int
(** Events recorded under one category (0 if never charged). *)

val entries : t -> (cat * (float * int)) list
(** Every category ever charged (a zero charge included) with its
    (cycles, events), by descending cycles, ties by name. *)

val by_category_counts : t -> (string * (float * int)) list
(** {!entries} with the categories' names. *)

val groups : (cat * float) list -> (string * float) list
(** Fold a per-category breakdown into per-group sums in
    {!group_order}, omitting groups with no entries. Each group sums in
    list order. *)

val delta : t -> (unit -> 'a) -> 'a * float
(** [delta m f] runs [f] and returns its result together with the cycles
    charged to [m] during the call. *)
