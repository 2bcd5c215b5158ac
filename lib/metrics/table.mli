(** ASCII/markdown table rendering for benchmark reports. *)

type align = Left | Right | Center

type t

val create : ?align:align list -> string list -> t
(** [create ?align headers] makes a table with the given column headers.
    [align] gives per-column alignment; missing entries default to
    [Right] (benchmark output is mostly numeric), extras are ignored.
    @raise Invalid_argument if [headers] is empty. *)

val add_row : t -> string list -> unit
(** Append a row. @raise Invalid_argument if the arity differs from the
    header. *)

val add_separator : t -> unit
(** Append a horizontal rule, rendered as a dashed line. *)

val row_count : t -> int
(** Number of data rows added so far (separators excluded). *)

val to_json : t -> Json.t
(** [{"headers": [...], "rows": [[...], ...]}]. *)

val render : t -> string
(** Box-drawing-free ASCII rendering with a header rule, columns padded
    per alignment and two-space gutters. Ends with a newline. *)

val render_markdown : t -> string
(** GitHub-flavoured markdown rendering. Ends with a newline. *)

val render_csv : t -> string
(** CSV rendering (header + data rows; separators are skipped). *)
