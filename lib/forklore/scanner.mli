(** Call-site scanner for C-like source, built on the position-tracking
    {!Lexer}.

    Counts occurrences of each tracked identifier whose next {e token}
    is ['('] — the same heuristic the paper-style "how much code still
    forks" surveys use, but comment/newline tolerant ([fork /*x*/ (…)]
    and [fork\n(…)] count). Identifiers embedded in longer names
    ([my_fork_helper]) never match, and comments, string and character
    literals are ignored. Every counted call site keeps its
    [line]/[col] position. *)

type call = { api : Api.t; id : string; line : int; col : int }
(** One counted call site: the tracked API, the exact identifier
    matched, and its 1-based position. *)

type result = {
  lines : int;
  counts : (Api.t * int) list;  (** every tracked API, zeroes included *)
  calls : call list;  (** in source order *)
}

val count : result -> Api.t -> int

val scan_string : string -> result

type dir_report = {
  files_scanned : int;
  total_lines : int;
  total : (Api.t * int) list;
  skipped : (string * string) list;
      (** unreadable paths and their error messages *)
}

val scan_directory : ?extensions:string list -> string -> dir_report
(** Recursively scan files with the given extensions (default
    [[".c"; ".h"; ".cc"; ".cpp"; ".hh"]]). Unreadable files are
    reported in [skipped], never silently dropped. *)

val walk_files :
  ?extensions:string list ->
  string ->
  (string * result) list * (string * string) list
(** Per-file results (path, scan) in walk order, plus the skipped
    (path, error) pairs. A [root] that does not exist or cannot be read
    appears in the skipped list. *)

val scan_directory_files :
  ?extensions:string list -> string -> (string * result) list
(** [fst (walk_files root)] — per-file results only. *)

val total_hits : result -> int
(** Sum of call sites across every tracked API. *)
