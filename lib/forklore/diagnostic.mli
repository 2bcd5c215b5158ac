(** Lint findings shared by the static checker ({!Rules} over C source)
    and the dynamic checker ([Ksim.Lint] over execution traces), so the
    two layers can be cross-validated finding-for-finding.

    Each diagnostic carries the rule that fired, a position
    ([file:line:col] for source; trace name / event index for runtime
    findings), the paper claim it operationalises and a concrete fix
    hint naming the spawn-based alternative. *)

type severity = Error | Warn | Info

type t = {
  rule : string;  (** rule id, e.g. ["fork-in-threads"] *)
  severity : severity;
  file : string;
  line : int;  (** 1-based *)
  col : int;  (** 1-based *)
  message : string;
  citation : string;  (** paper section the rule operationalises *)
  hint : string;  (** the spawnlib/posix_spawn way out *)
}

val compare : t -> t -> int
(** Order by file, line, col, severity, rule — the report order. *)

val equal : t -> t -> bool
val is_error : t -> bool
val count : severity -> t list -> int

val pp : Format.formatter -> t -> unit

val json_escape : string -> string
(** Escape a string for embedding in a JSON string literal (shared with
    the {!Sarif} exporter). *)

val report_to_json : t list -> string
(** Full report: sorted findings plus a severity summary. *)

val report_of_json : string -> (t list, string) result
(** Parse a report produced by {!report_to_json} back into findings;
    used to guarantee the JSON output round-trips. *)
