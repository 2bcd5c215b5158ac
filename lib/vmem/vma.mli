(** Virtual memory area payloads (the per-region record of an address
    space). Placement (start/stop) lives in the {!Region_map} keys; this
    module is only the payload and its cropping rule. *)

type kind =
  | Anon  (** private anonymous memory (mmap) *)
  | Heap  (** the brk-managed heap *)
  | Stack
  | Text of { path : string }  (** executable image text *)
  | Data of { path : string }  (** executable image data *)
  | File of { path : string; offset : int }  (** file-backed mapping *)
  | Guard  (** no-access guard region *)

type t = { perm : Perm.t; kind : kind; shared : bool }

val make : ?shared:bool -> perm:Perm.t -> kind:kind -> unit -> t
(** [shared] defaults to false (private mapping). *)

val crop : old_start:int -> start:int -> stop:int -> t -> t
(** Adjust the payload for a sub-range [[start, stop)] of a region that
    used to start at [old_start]; file-backed mappings shift their
    offset, other kinds are unchanged. Matches the signature
    {!Region_map.carve} expects. *)
