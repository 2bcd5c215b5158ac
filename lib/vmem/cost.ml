type params = {
  syscall_base : float;
  proc_create : float;
  proc_destroy : float;
  vma_clone : float;
  pt_node_copy : float;
  pte_copy : float;
  fault_base : float;
  frame_zero : float;
  frame_copy : float;
  tlb_flush : float;
  tlb_shootdown : float;
  tlb_invlpg : float;
  exec_base : float;
  exec_per_page : float;
  fd_clone : float;
  pager_request : float;
  pager_fetch_image : float;
  pager_fetch_template : float;
}

(* Order-of-magnitude constants for a ~3 GHz server; see the module
   interface for why only their relative magnitudes matter. *)
let default =
  {
    syscall_base = 1_500.0;
    proc_create = 30_000.0;
    proc_destroy = 20_000.0;
    vma_clone = 600.0;
    pt_node_copy = 1_200.0;
    pte_copy = 30.0;
    fault_base = 2_500.0;
    frame_zero = 1_000.0;
    frame_copy = 1_600.0;
    tlb_flush = 800.0;
    tlb_shootdown = 4_000.0;
    tlb_invlpg = 200.0;
    exec_base = 900_000.0;
    exec_per_page = 450.0;
    fd_clone = 120.0;
    pager_request = 3_000.0;
    pager_fetch_image = 2_400.0;
    pager_fetch_template = 1_600.0;
  }

let ghz = 3.0
let cycles_to_ns c = c /. ghz

type cat =
  | Syscall | Proc_create | Proc_destroy
  | Fork_vma | Fork_pt_node | Fork_pte | Fork_eager_copy | Zygote_subtree
  | Fault_base | Fault_zero_fill | Fault_cow_copy | Fault_cow_reuse
  | Pager_request | Pager_fetch_image
  | Pager_fetch_template | Pager_readahead_hit
  | Tlb_flush | Tlb_shootdown | Tlb_invlpg
  | Exec_base | Exec_load_page | Fd_inherit

type info = { idx : int; name : string; group : string }

(* The one category table. Constant records, so a lookup allocates
   nothing; [idx] is the declaration position. *)
let info = function
  | Syscall -> { idx = 0; name = "syscall"; group = "other" }
  | Proc_create -> { idx = 1; name = "proc:create"; group = "other" }
  | Proc_destroy -> { idx = 2; name = "proc:destroy"; group = "other" }
  | Fork_vma -> { idx = 3; name = "fork:vma"; group = "other" }
  | Fork_pt_node -> { idx = 4; name = "fork:pt-node"; group = "pt-copy" }
  | Fork_pte -> { idx = 5; name = "fork:pte"; group = "pt-copy" }
  | Fork_eager_copy ->
    { idx = 6; name = "fork:eager-copy"; group = "frame-copy" }
  | Zygote_subtree -> { idx = 7; name = "zygote:subtree"; group = "pt-copy" }
  | Fault_base -> { idx = 8; name = "fault:base"; group = "fault" }
  | Fault_zero_fill -> { idx = 9; name = "fault:zero-fill"; group = "fault" }
  | Fault_cow_copy ->
    { idx = 10; name = "fault:cow-copy"; group = "frame-copy" }
  | Fault_cow_reuse -> { idx = 11; name = "fault:cow-reuse"; group = "fault" }
  | Pager_request -> { idx = 12; name = "pager:request"; group = "pager" }
  | Pager_fetch_image ->
    { idx = 13; name = "pager:fetch-image"; group = "pager" }
  | Pager_fetch_template ->
    { idx = 14; name = "pager:fetch-template"; group = "pager" }
  | Pager_readahead_hit ->
    { idx = 15; name = "pager:readahead-hit"; group = "pager" }
  | Tlb_flush -> { idx = 16; name = "tlb:flush"; group = "tlb" }
  | Tlb_shootdown -> { idx = 17; name = "tlb:shootdown"; group = "tlb" }
  | Tlb_invlpg -> { idx = 18; name = "tlb:invlpg"; group = "tlb" }
  | Exec_base -> { idx = 19; name = "exec:base"; group = "exec" }
  | Exec_load_page -> { idx = 20; name = "exec:load-page"; group = "exec" }
  | Fd_inherit -> { idx = 21; name = "fd:inherit"; group = "other" }

let all =
  [ Syscall; Proc_create; Proc_destroy;
    Fork_vma; Fork_pt_node; Fork_pte; Fork_eager_copy; Zygote_subtree;
    Fault_base; Fault_zero_fill; Fault_cow_copy; Fault_cow_reuse;
    Pager_request; Pager_fetch_image;
    Pager_fetch_template; Pager_readahead_hit;
    Tlb_flush; Tlb_shootdown; Tlb_invlpg;
    Exec_base; Exec_load_page; Fd_inherit ]

let ncats = List.length all

let group_order =
  [ "pt-copy"; "fault"; "pager"; "frame-copy"; "tlb"; "exec"; "other" ]

(* Slot [ncats] of [cycles] is the running total. Keeping it in the
   float array instead of a mutable float field is what lets a charge
   add without boxing. *)
type t = {
  params : params;
  cycles : Float.Array.t;
  events : int array;
  mutable charged : int;  (* bit [idx]: the category was ever charged *)
  mutable observer : (cat -> n:int -> float -> unit) option;
}

let create ?(params = default) () =
  {
    params;
    cycles = Float.Array.make (ncats + 1) 0.0;
    events = Array.make ncats 0;
    charged = 0;
    observer = None;
  }

let params t = t.params
let set_observer t obs = t.observer <- obs

let add t cat ~n cycles =
  let i = (info cat).idx in
  Float.Array.set t.cycles i (Float.Array.get t.cycles i +. cycles);
  Float.Array.set t.cycles ncats (Float.Array.get t.cycles ncats +. cycles);
  t.events.(i) <- t.events.(i) + n;
  t.charged <- t.charged lor (1 lsl i)

let charge ?(n = 1) t cat cycles =
  if not (cycles >= 0.0) then invalid_arg "Cost.charge: negative or NaN charge";
  if n < 0 then invalid_arg "Cost.charge: negative event count";
  add t cat ~n cycles;
  match t.observer with None -> () | Some f -> f cat ~n cycles

let tally t cat = charge t cat 0.0
let total t = Float.Array.get t.cycles ncats
let get t cat = Float.Array.get t.cycles (info cat).idx
let count t cat = t.events.((info cat).idx)

let entries t =
  List.filter_map
    (fun c ->
      if t.charged land (1 lsl (info c).idx) = 0 then None
      else Some (c, (get t c, count t c)))
    all
  |> List.sort (fun (a, (x, _)) (b, (y, _)) ->
         match Float.compare y x with
         | 0 -> String.compare (info a).name (info b).name
         | d -> d)

let by_category_counts t =
  List.map (fun (c, e) -> ((info c).name, e)) (entries t)

let groups breakdown =
  List.filter_map
    (fun g ->
      List.fold_left
        (fun sum (c, cycles) ->
          if String.equal (info c).group g then
            Some (Option.value sum ~default:0.0 +. cycles)
          else sum)
        None breakdown
      |> Option.map (fun sum -> (g, sum)))
    group_order

let delta t f =
  let before = total t in
  let result = f () in
  (result, total t -. before)
