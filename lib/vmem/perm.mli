(** Page / region access permissions. *)

type t = { read : bool; write : bool; exec : bool }

val none : t
val r : t
val rw : t
val rx : t
val rwx : t

val allows : t -> t -> bool
(** [allows granted requested] is true when every access in [requested]
    is permitted by [granted]. *)

val union : t -> t -> t
val inter : t -> t -> t
val equal : t -> t -> bool

val to_string : t -> string
