(* Seeded per-op parameter generator.

   Every per-op parameter of a workload (fractions, offsets, patterns,
   image sizes, arrival bursts) is drawn here from the benchmark seed
   before the kernel boots; simulated programs only ever see the drawn
   values. Continuous parameters are stratified (one draw per stratum,
   in seed-shuffled order), so every seed covers each range evenly and
   the batch totals that host timings depend on vary little between
   seeds while the op-by-op sequence does. *)

type t = Prng.Splitmix.t

let create ~seed = Prng.Splitmix.create ~seed
let int rng ~bound = Prng.Splitmix.int rng ~bound

(* [n] values in [lo, hi), one per equal-width stratum, shuffled. *)
let strata rng n ~lo ~hi =
  let a =
    Array.init n (fun i ->
        lo +. ((hi -. lo) *. (float_of_int i +. Prng.Splitmix.float rng))
              /. float_of_int n)
  in
  Prng.Splitmix.shuffle rng a;
  a

(* Like [strata] on a log scale: as many draws per decade. *)
let log_strata rng n ~lo ~hi =
  Array.map exp (strata rng n ~lo:(log lo) ~hi:(log hi))

(* A slot in [0, k) per value of [v]: every k values of consecutive rank
   get each slot once, in shuffled order. A choice made by slot is thus
   balanced across the range of [v] (e.g. as many strided touches among
   the large touches as among the small ones). *)
let balanced rng v k =
  let order = Array.init (Array.length v) Fun.id in
  Array.stable_sort (fun a b -> compare v.(a) v.(b)) order;
  let slot = Array.make (Array.length v) 0 in
  let perm = Array.init k Fun.id in
  Array.iteri
    (fun r i ->
      if r mod k = 0 then Prng.Splitmix.shuffle rng perm;
      slot.(i) <- perm.(r mod k))
    order;
  slot

(* [n] values cycling through [choices], in shuffled order. *)
let even rng n choices =
  let a = Array.init n (fun i -> choices.(i mod Array.length choices)) in
  Prng.Splitmix.shuffle rng a;
  a

(* [n] flags, exactly [k] of them true, in shuffled order. *)
let exactly rng n k =
  let a = Array.init n (fun i -> i < k) in
  Prng.Splitmix.shuffle rng a;
  a
