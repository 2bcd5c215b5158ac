type ipi_hook = src:int -> dsts:Cpuset.t -> full:bool -> n:int -> unit

type t = {
  cost : Cost.t;
  ncpus : int;
  tracked : bool;
  mutable active : int;
  mutable ipi_hook : ipi_hook option;
}

let create ?(cpus = 4) ?(tracked = false) cost =
  if cpus < 1 then invalid_arg "Tlb.create: cpus < 1";
  if tracked && cpus > Cpuset.max_cpus then
    invalid_arg
      (Printf.sprintf "Tlb.create: tracked mode supports at most %d cpus"
         Cpuset.max_cpus);
  { cost; ncpus = cpus; tracked; active = 0; ipi_hook = None }

let tracked t = t.tracked

let set_active t cpu =
  if cpu < 0 || cpu >= t.ncpus then invalid_arg "Tlb.set_active: cpu out of range";
  t.active <- cpu

let active_cpu t = t.active
let set_ipi_hook t hook = t.ipi_hook <- hook

let flush_local t =
  Cost.charge t.cost Tlb_flush (Cost.params t.cost).Cost.tlb_flush

let shootdown t =
  let p = Cost.params t.cost in
  Cost.charge t.cost Tlb_flush p.Cost.tlb_flush;
  Cost.charge t.cost Tlb_shootdown
    (p.Cost.tlb_shootdown *. float_of_int (t.ncpus - 1))

let ipi t ~dsts ~full ~n =
  if not t.tracked then invalid_arg "Tlb.ipi: untracked Tlb";
  if n < 0 then invalid_arg "Tlb.ipi: negative count";
  let k = Cpuset.count (Cpuset.remove t.active dsts) in
  let events = n * k in
  if events > 0 then begin
    Cost.charge ~n:events t.cost Tlb_shootdown
      ((Cost.params t.cost).Cost.tlb_shootdown *. float_of_int events);
    match t.ipi_hook with
    | None -> ()
    | Some hook ->
      hook ~src:t.active ~dsts:(Cpuset.remove t.active dsts) ~full ~n
  end

let invalidate_page t =
  Cost.charge t.cost Tlb_invlpg (Cost.params t.cost).Cost.tlb_invlpg

let invalidate_pages t ~n =
  if n < 0 then invalid_arg "Tlb.invalidate_pages: negative count";
  if n > 0 then
    Cost.charge ~n t.cost Tlb_invlpg
      ((Cost.params t.cost).Cost.tlb_invlpg *. float_of_int n)
