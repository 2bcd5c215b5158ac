(* Subsystem grouping of the cost-meter categories. The groups
   partition every category, so their sum always equals the headline
   cycle count — the invariant both the bench report's breakdown and the
   flamegraph's leaf frames rely on. *)
let group_of cat =
  match cat with
  | "fork:pt-node" | "fork:pte" | "zygote:subtree" -> "pt-copy"
  | "fault:cow-copy" | "fork:eager-copy" -> "frame-copy"
  | _ ->
    if String.starts_with ~prefix:"fault:" cat then "fault"
    else if String.starts_with ~prefix:"pager:" cat then "pager"
    else if String.starts_with ~prefix:"tlb:" cat then "tlb"
    else if String.starts_with ~prefix:"exec:" cat then "exec"
    else "other"

let group_order =
  [ "pt-copy"; "fault"; "pager"; "frame-copy"; "tlb"; "exec"; "other" ]

let groups_of_breakdown breakdown =
  let tbl = Hashtbl.create 8 in
  List.iter
    (fun (cat, c) ->
      let g = group_of cat in
      let prev = Option.value ~default:0.0 (Hashtbl.find_opt tbl g) in
      Hashtbl.replace tbl g (prev +. c))
    breakdown;
  List.filter_map
    (fun g -> Option.map (fun c -> (g, c)) (Hashtbl.find_opt tbl g))
    group_order
