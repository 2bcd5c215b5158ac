(** SARIF 2.1.0 export of forklint findings.

    Static Analysis Results Interchange Format output so forkscan
    reports plug into CI annotation surfaces (e.g. code-scanning
    upload). One run per report: the tool driver carries every
    registered rule (id, short description, default level, fix-hint
    help text), and each finding becomes a [result] with [ruleId],
    [ruleIndex] into that table, a [level] mapped from the forklint
    severity (Error→"error", Warn→"warning", Info→"note"), and a
    [physicalLocation] with 1-based [startLine]/[startColumn]. The fix
    hint rides both in the message text and in a [properties] bag
    alongside the paper citation. Output is deterministic — registry
    order for rules, {!Diagnostic.compare} order for results, no
    timestamps — so SARIF artifacts diff cleanly across CI runs. *)

val schema_uri : string

val level_of_severity : Diagnostic.severity -> string

val report : ?rules:Rules.t list -> Diagnostic.t list -> string
(** Render a complete SARIF log (default rule table: {!Rules.all}). *)
