(** Synthetic C corpus generator for the usage survey (E7).

    The HotOS'19 discussion rests on a corpus-scale observation: Unix
    code overwhelmingly creates processes with fork (directly or through
    system/popen), and spawn-family calls are rare. We cannot ship the
    Debian source tree, so this module generates a deterministic corpus
    whose {e mix} follows that qualitative shape, each package carrying
    its ground-truth call counts so the scanner can be validated exactly.
    Distractor text (comments, strings, lookalike identifiers,
    declarations) is woven in to keep the scanner honest. *)

type package = {
  name : string;
  source : string;
  truth : (Api.t * int) list;  (** exact call sites embedded, per API *)
}

val truth_count : package -> Api.t -> int

(** Package archetypes and their draw weights, mirroring the observed mix
    (fork-based idioms dominate; spawn is rare). *)
type archetype =
  | Shell_out  (** system/popen callers *)
  | Daemon  (** classic fork + exec servers *)
  | Spawner  (** the rare posix_spawn adopter *)
  | Low_level  (** vfork/clone runtimes *)
  | Pure  (** no process creation at all *)

val generate : ?packages:int -> seed:int -> unit -> package list
(** Deterministic in [seed]. Default 200 packages. *)

type hazard = {
  hz_name : string;
  hz_source : string;
  hz_expected : (string * int * int) list;
      (** ground-truth findings as (rule id, line, col), 1-based, in
          {!Diagnostic.compare} order *)
}

val hazards : hazard list
(** Hand-written fixtures exhibiting the paper's fork hazards (threaded
    fork without exec, vfork misuse, unflushed stdio, fd leaks, unsafe
    child-side work, locks held across fork, child fallthrough) plus
    clean programs (posix_spawn; parent-path-only work; helper-flushed
    stdio), each labelled with the exact findings
    {!Rules.check_string} must report. *)
