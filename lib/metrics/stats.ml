type t = {
  count : int;
  mean : float;
  stddev : float;
  min : float;
  max : float;
  p50 : float;
  p90 : float;
  p99 : float;
  total : float;
}

let percentile sorted q =
  let n = Array.length sorted in
  if n = 0 then invalid_arg "Stats.percentile: empty array";
  if q < 0.0 || q > 100.0 then invalid_arg "Stats.percentile: q out of range";
  if n = 1 then sorted.(0)
  else begin
    let rank = q /. 100.0 *. float_of_int (n - 1) in
    let lo = int_of_float (Float.floor rank) in
    let hi = int_of_float (Float.ceil rank) in
    let frac = rank -. float_of_int lo in
    (sorted.(lo) *. (1.0 -. frac)) +. (sorted.(hi) *. frac)
  end

let mean a =
  let n = Array.length a in
  if n = 0 then invalid_arg "Stats.mean: empty array";
  Array.fold_left ( +. ) 0.0 a /. float_of_int n

let stddev a =
  let n = Array.length a in
  if n = 0 then invalid_arg "Stats.stddev: empty array";
  if n = 1 then 0.0
  else begin
    let m = mean a in
    let ss = Array.fold_left (fun acc x -> acc +. ((x -. m) ** 2.0)) 0.0 a in
    sqrt (ss /. float_of_int (n - 1))
  end

let of_array samples =
  let n = Array.length samples in
  if n = 0 then invalid_arg "Stats.of_array: empty array";
  let sorted = Array.copy samples in
  Array.sort Float.compare sorted;
  let total = Array.fold_left ( +. ) 0.0 sorted in
  {
    count = n;
    mean = total /. float_of_int n;
    stddev = stddev samples;
    min = sorted.(0);
    max = sorted.(n - 1);
    p50 = percentile sorted 50.0;
    p90 = percentile sorted 90.0;
    p99 = percentile sorted 99.0;
    total;
  }

let of_list l = of_array (Array.of_list l)

let coefficient_of_variation t =
  if t.mean = 0.0 then Float.nan else t.stddev /. t.mean

let to_json t =
  Json.obj
    [
      ("count", Json.int t.count);
      ("mean", Json.num t.mean);
      ("stddev", Json.num t.stddev);
      ("min", Json.num t.min);
      ("max", Json.num t.max);
      ("p50", Json.num t.p50);
      ("p90", Json.num t.p90);
      ("p99", Json.num t.p99);
      ("total", Json.num t.total);
    ]
