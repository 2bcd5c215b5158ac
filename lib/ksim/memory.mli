(** Memory syscalls over the calling process's address space, and the
    Demand-policy OOM killer that backs a first touch by killing the
    largest other process. *)

val map_anon :
  Vmem.Addr_space.t -> len:int -> perm:Vmem.Perm.t -> (int, Errno.t) result
(** An anonymous mapping at a placement the space picks (mmap and the
    builder's Pb_map). *)

val write_into : Vmem.Addr_space.t -> int -> string -> (unit, Errno.t) result
(** Store bytes (mem_write and the builder's Pb_write). *)

(** {1 Syscalls} *)

val mmap : Proc.t -> len:int -> perm:Vmem.Perm.t -> (int, Errno.t) result Machine.action
val munmap : Proc.t -> addr:int -> len:int -> (unit, Errno.t) result Machine.action
val brk : Proc.t -> int option -> (int, Errno.t) result Machine.action
val mem_read : Proc.t -> addr:int -> len:int -> (string, Errno.t) result Machine.action
val mem_write : Proc.t -> addr:int -> data:string -> (unit, Errno.t) result Machine.action

val touch :
  Machine.t -> Proc.t -> addr:int -> len:int -> (int, Errno.t) result Machine.action
(** Fault a range in. Under the [Demand] commit policy a page that
    cannot be backed kills the OOM victim and retries, and fails
    [ENOMEM] only once no victim is left. *)
