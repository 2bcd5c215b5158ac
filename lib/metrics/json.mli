(** Minimal JSON values, writer and reader.

    The tree keeps no external dependencies, so machine-readable output
    (bench reports, kstat counter dumps, trace exports) shares this one
    hand-rolled implementation. The writer emits standard JSON; NaN and
    infinities become [null]. The reader accepts everything the writer
    produces (full JSON minus surrogate-pair [\u] escapes, which decode
    to ['?']). *)

type t =
  | Null
  | Bool of bool
  | Int of int
  | Num of float
  | Str of string
  | Arr of t list
  | Obj of (string * t) list

(** {1 Construction helpers} *)

val obj : (string * t) list -> t
val arr : t list -> t
val str : string -> t
val int : int -> t
val num : float -> t
val bool : bool -> t

(** {1 Writing} *)

val to_string : ?indent:int -> t -> string
(** [to_string ?indent v] renders [v]. [indent = 0] (default) is compact
    single-line output; positive values pretty-print with that many
    spaces per level. Integral floats print without a fraction (and thus
    re-read as [Int]); use {!to_num} when reading numbers back. *)

(** {1 Reading} *)

val of_string : string -> (t, string) result
(** Parse a complete JSON document. The error string includes a byte
    offset. *)

val member : string -> t -> t option
(** Field of an object, [None] on missing field or non-object. *)

val to_list : t -> t list option
val to_str : t -> string option
val to_int : t -> int option

val to_num : t -> float option
(** Numeric value as float; accepts both [Num] and [Int]. *)

val to_bool : t -> bool option
