(** Aggregation of scans into the E7 usage table. *)

type row = {
  api : Api.t;
  packages_using : int;
  call_sites : int;
  package_share : float;  (** fraction of packages with >= 1 call site *)
}

val of_packages : Corpus.package list -> row list
(** Scan every synthetic package and aggregate. Rows are in {!Api.all}
    order. *)

val validate : Corpus.package list -> (unit, string) Result.t
(** Check the scanner against every package's ground truth; [Error]
    names the first mismatching package and API. *)
