type t = { mutable state : int64 }

let create ~seed = { state = Int64.of_int seed }

(* splitmix64 (Steele, Lea, Flood 2014) *)
let next64 t =
  t.state <- Int64.add t.state 0x9E3779B97F4A7C15L;
  let z = t.state in
  let z = Int64.mul (Int64.logxor z (Int64.shift_right_logical z 30)) 0xBF58476D1CE4E5B9L in
  let z = Int64.mul (Int64.logxor z (Int64.shift_right_logical z 27)) 0x94D049BB133111EBL in
  Int64.logxor z (Int64.shift_right_logical z 31)

let next t = Int64.to_int (Int64.shift_right_logical (next64 t) 2)

let int t ~bound =
  if bound <= 0 then invalid_arg "Splitmix.int: bound <= 0";
  next t mod bound

let float t = Int64.to_float (Int64.shift_right_logical (next64 t) 11)
              *. (1.0 /. 9007199254740992.0) (* 2^-53 *)

let split t = { state = next64 t }

let shuffle t a =
  for i = Array.length a - 1 downto 1 do
    let j = int t ~bound:(i + 1) in
    let tmp = a.(i) in
    a.(i) <- a.(j);
    a.(j) <- tmp
  done
