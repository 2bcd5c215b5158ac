(** Non-overlapping half-open interval map, the backing store for a
    process's VMA list.

    Intervals are [[start, stop)] with [start < stop]. The structure is
    persistent (fork shares it for free, mirroring how cheap the VMA
    *list* copy is compared to the page-table copy). *)

type 'a t

val empty : 'a t
val cardinal : 'a t -> int

val add : start:int -> stop:int -> 'a -> 'a t -> ('a t, [> `Overlap ]) result
(** @raise Invalid_argument if [start >= stop] or [start < 0]. *)

val find_containing : int -> 'a t -> (int * int * 'a) option
(** The interval containing a point, if any. *)

val mem : int -> 'a t -> bool

val overlapping : start:int -> stop:int -> 'a t -> (int * int * 'a) list
(** All intervals intersecting [[start, stop)], in increasing order. *)

val carve :
  start:int ->
  stop:int ->
  crop:(old_start:int -> start:int -> stop:int -> 'a -> 'a) ->
  'a t ->
  'a t * (int * int * 'a) list
(** [carve ~start ~stop ~crop m] removes the range [[start, stop)] from
    the map. Intervals straddling the boundary are split; [crop] is
    applied to every fragment (kept or removed) so payloads that carry
    range-dependent data (e.g. file offsets) can be adjusted. Returns the
    new map and the removed fragments in increasing order. *)

val iter : (int -> int -> 'a -> unit) -> 'a t -> unit
val to_list : 'a t -> (int * int * 'a) list

val find_gap : min:int -> max:int -> len:int -> 'a t -> int option
(** Lowest [start >= min] such that [[start, start+len)] fits below
    [max] without touching any interval. @raise Invalid_argument if
    [len <= 0]. *)

val total_length : 'a t -> int
(** Sum of interval lengths. *)
