(** Descriptive statistics over float samples.

    A {!t} is an immutable summary computed once from a sample array; the
    benches compute one per (experiment, parameter) cell. *)

type t = {
  count : int;
  mean : float;
  stddev : float;  (** sample standard deviation (n-1 denominator) *)
  min : float;
  max : float;
  p50 : float;
  p90 : float;
  p99 : float;
  total : float;
}

val of_array : float array -> t
(** [of_array samples] summarises [samples]. The input array is not
    modified. @raise Invalid_argument on an empty array. *)

val of_list : float list -> t
(** List version of {!of_array}. *)

val percentile : float array -> float -> float
(** [percentile sorted q] returns the [q]-th percentile ([0. <= q <=
    100.]) of an array sorted in increasing order, with linear
    interpolation between ranks. @raise Invalid_argument if the array is
    empty or [q] is out of range. *)

val mean : float array -> float
(** Arithmetic mean. @raise Invalid_argument on an empty array. *)

val coefficient_of_variation : t -> float
(** [stddev /. mean]. Edge cases: all-equal samples have [stddev = 0.]
    and hence CV [0.] (provided the common value is non-zero); when the
    mean is exactly [0.] the ratio is undefined and the result is
    [nan]. *)

val to_json : t -> Json.t
(** All fields as a JSON object (used by the bench report writer). *)
