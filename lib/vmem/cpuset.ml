(* A set of simulated CPU ids, 0..63, as an Int64 bitmask.

   OCaml's native [int] is 63-bit on 64-bit platforms, which is exactly
   one bit short of the 64-CPU ceiling the SMP model advertises, so the
   mask lives in an [Int64]. Values are immutable; the address-space CPU
   mask that uses this is a mutable field holding one. *)

type t = int64

let max_cpus = 64

let check cpu =
  if cpu < 0 || cpu >= max_cpus then
    invalid_arg (Printf.sprintf "Cpuset: cpu %d out of range 0..%d" cpu (max_cpus - 1))

let empty = 0L
let bit cpu = Int64.shift_left 1L cpu

let singleton cpu =
  check cpu;
  bit cpu

let add cpu t =
  check cpu;
  Int64.logor t (bit cpu)

let remove cpu t =
  check cpu;
  Int64.logand t (Int64.lognot (bit cpu))

let count t =
  (* popcount, 16 bits at a time: cheap and branch-free enough for a
     64-entry mask consulted on every shootdown. *)
  let rec go acc v =
    if Int64.equal v 0L then acc
    else go (acc + (Int64.to_int (Int64.logand v 1L))) (Int64.shift_right_logical v 1)
  in
  go 0 t

let fold f t init =
  let acc = ref init in
  for cpu = 0 to max_cpus - 1 do
    if not (Int64.equal (Int64.logand t (bit cpu)) 0L) then acc := f cpu !acc
  done;
  !acc

let to_list t = List.rev (fold (fun cpu acc -> cpu :: acc) t [])
