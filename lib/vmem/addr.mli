(** Virtual-address arithmetic and paging geometry.

    The simulated MMU uses the x86-64 4 KiB / 4-level layout: 12 offset
    bits and four 9-bit translation levels, i.e. a 48-bit canonical
    virtual address space. Addresses and page numbers are plain [int]s
    (OCaml ints are 63-bit on this platform, so the full 48-bit space
    fits). *)

val page_size : int (* 4096 *)
val page_shift : int (* 12 *)
val levels : int (* 4 *)
val index_bits : int (* 9 per level *)
val entries_per_table : int (* 512 *)
val max_va : int
(** Exclusive upper bound of the canonical address space, [1 lsl 48]. *)

val is_page_aligned : int -> bool
val align_down : int -> int
val align_up : int -> int
(** [align_up a] rounds up to the next page boundary; values within
    [page_size] of [max_int] are not supported. *)

val page_number : int -> int
(** Virtual page number containing address [a]. *)

val page_offset : int -> int
val addr_of_page : int -> int
val pages_spanning : int -> int -> int
(** [pages_spanning addr len] is the number of pages touched by the byte
    range [[addr, addr+len)]; 0 when [len <= 0]. *)

val table_index : level:int -> int -> int
(** [table_index ~level vpn] extracts the radix index of [vpn] at
    [level]; level 0 is the leaf table, level [levels-1] the root.
    @raise Invalid_argument if [level] is out of range. *)

val valid : int -> bool
(** Address lies in [[0, max_va)]. *)
