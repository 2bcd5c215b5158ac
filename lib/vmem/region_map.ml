module Imap = Map.Make (Int)

(* Keyed by interval start; the payload stores the exclusive stop. *)
type 'a t = (int * 'a) Imap.t

let empty = Imap.empty
let cardinal = Imap.cardinal

let check_range start stop name =
  if start < 0 then invalid_arg (name ^ ": negative start");
  if start >= stop then invalid_arg (name ^ ": empty range")

(* The interval at or before [point], if it covers it. *)
let find_containing point m =
  match Imap.find_last_opt (fun s -> s <= point) m with
  | Some (s, (e, v)) when point < e -> Some (s, e, v)
  | Some _ | None -> None

let mem point m = Option.is_some (find_containing point m)

let overlapping ~start ~stop m =
  check_range start stop "Region_map.overlapping";
  (* the interval containing [start] plus all intervals whose start lies
     in [start, stop): walk the map from the containing interval (or the
     first at/after [start]) instead of folding the whole map *)
  let from =
    match find_containing start m with Some (s, _, _) -> s | None -> start
  in
  let rec collect seq acc =
    match seq () with
    | Seq.Cons ((s, (e, v)), rest) when s < stop ->
      collect rest ((s, e, v) :: acc)
    | Seq.Cons _ | Seq.Nil -> List.rev acc
  in
  collect (Imap.to_seq_from from m) []

let add ~start ~stop v m =
  check_range start stop "Region_map.add";
  let overlaps =
    mem start m
    ||
    match Imap.find_first_opt (fun s -> s >= start) m with
    | Some (s, _) -> s < stop
    | None -> false
  in
  if overlaps then Error `Overlap else Ok (Imap.add start (stop, v) m)

let carve ~start ~stop ~crop m =
  check_range start stop "Region_map.carve";
  let victims = overlapping ~start ~stop m in
  let m, removed =
    List.fold_left
      (fun (m, removed) (s, e, v) ->
        let m = Imap.remove s m in
        (* left fragment survives *)
        let m =
          if s < start then
            Imap.add s (start, crop ~old_start:s ~start:s ~stop:start v) m
          else m
        in
        (* right fragment survives *)
        let m =
          if e > stop then
            Imap.add stop (e, crop ~old_start:s ~start:stop ~stop:e v) m
          else m
        in
        let mid_s = max s start and mid_e = min e stop in
        let frag = (mid_s, mid_e, crop ~old_start:s ~start:mid_s ~stop:mid_e v) in
        (m, frag :: removed))
      (m, []) victims
  in
  (m, List.rev removed)

let iter f m = Imap.iter (fun s (e, v) -> f s e v) m
let fold f m init = Imap.fold (fun s (e, v) acc -> f s e v acc) m init
let to_list m = fold (fun s e v acc -> (s, e, v) :: acc) m [] |> List.rev

exception Found_gap of int

let find_gap ~min ~max ~len m =
  if len <= 0 then invalid_arg "Region_map.find_gap: len <= 0";
  (* allocation-free ascending scan; intervals below [min] neither open a
     gap (their start is below [pos]) nor move [pos] *)
  let pos = ref min in
  try
    Imap.iter
      (fun s (e, _) ->
        if !pos + len <= s then raise (Found_gap !pos)
        else if e > !pos then pos := e)
      m;
    if !pos + len <= max then Some !pos else None
  with Found_gap p -> Some p

let total_length m = fold (fun s e _ acc -> acc + (e - s)) m 0
