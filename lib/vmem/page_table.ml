(* Nodes are reference-counted so {!clone_cow_shared} can hand the whole
   radix tree to a forked child without copying it: both tables point at
   the same nodes until one of them writes, at which point the writer
   privatises the path to the touched leaf (path copying). The modelled
   cost of the copy is still charged eagerly at clone time — sharing is
   a harness optimisation, never a semantic one.

   Frame references belong to leaves, not tables: a leaf holds one
   reference on every present frame it maps, however many tables share
   it (pinned frames are not counted at all). So a fork moves no frame
   count, privatising a leaf gives the copy its own references, and a
   leaf drops its references when the last table lets go of it.

   A leaf is [clean] from the fork pass that put it in post-fork form
   until a table next writes to it, which only [leaf_for_write] does: a
   later fork pass would map every entry of a clean leaf to itself, so
   it skips the leaf. *)
type node = Pt_node.t =
  | Leaf of { mutable refs : int; mutable clean : bool; entries : int array }
      (** packed PTEs *)
  | Inner of { mutable refs : int; children : node option array }

type t = {
  frames : Frame.t;  (** the machine whose frames the leaves reference *)
  mutable root : node;
  mutable present : int;
  mutable lazy_ : int;  (** mapped-but-unbacked (demand-paged) entries *)
  mutable nodes : int;
}

(* A missing leaf reads as the empty array: a walk allocates no option,
   and [entry] reads every index of it as absent. *)
let no_leaf : int array = [||]

(* Released arrays, per machine ({!Frame.spares}). A leaf's array or an
   inner node's child array is 513 words, above the minor heap's limit,
   so a fresh one is a major-heap block that the collector must later
   mark and sweep; [clear] gives a dead node's array back to its
   machine's stack and every node constructor takes from there first.
   A stack never holds more arrays than the machine's peak count of live
   nodes of its kind, and dies with the machine. Slots at and above
   [top] hold the empty array. *)
let pop (s : _ Frame.stack) =
  s.top <- s.top - 1;
  let a = s.arrays.(s.top) in
  s.arrays.(s.top) <- [||];
  a

let push (s : _ Frame.stack) a =
  if s.top = Array.length s.arrays then begin
    let grown = Array.make (max 64 (2 * s.top)) [||] in
    Array.blit s.arrays 0 grown 0 s.top;
    s.arrays <- grown
  end;
  s.arrays.(s.top) <- a;
  s.top <- s.top + 1

(* A released array holds what it held when its node died; a fresh one
   is all-absent (all-[None]). *)
let take_leaf frames =
  let s = (Frame.spares frames).leaves in
  if s.top = 0 then Array.make Addr.entries_per_table Pte.absent else pop s

let take_inner frames =
  let s = (Frame.spares frames).inners in
  if s.top = 0 then Array.make Addr.entries_per_table None else pop s

(* Typed loops: on an [int array] they compile to plain loads and
   stores, where [Array.fill] and [Array.blit] take the runtime's
   generic path. On a child array every store pays the write barrier,
   which the runtime's loop pays for less (a fill skips the slots
   already [None]). A fresh array is already all-absent: only a
   recycled one is filled. *)
let new_leaf frames =
  let recycled = (Frame.spares frames).leaves.top > 0 in
  let entries = take_leaf frames in
  if recycled then
    for i = 0 to Addr.entries_per_table - 1 do
      Array.unsafe_set entries i Pte.absent
    done;
  Leaf { refs = 1; clean = false; entries }

let copy_leaf frames (src : int array) =
  let entries = take_leaf frames in
  for i = 0 to Addr.entries_per_table - 1 do
    Array.unsafe_set entries i (Array.unsafe_get src i)
  done;
  entries

let new_inner frames =
  let recycled = (Frame.spares frames).inners.top > 0 in
  let children = take_inner frames in
  if recycled then Array.fill children 0 Addr.entries_per_table None;
  Inner { refs = 1; children }

let create ~frames =
  { frames; root = new_inner frames; present = 0; lazy_ = 0; nodes = 1 }

(* The root of a cleared table. [clear] releases every node and leaves
   this in place of a fresh root (both of its callers drop the table at
   once), so a later walk of the dropped table fails here instead of
   reading leaves whose arrays have gone back to the stack. *)
let dropped = Inner { refs = 0; children = [||] }

let root t =
  if t.root == dropped then invalid_arg "Page_table: walk of a cleared table";
  t.root

let check_vpn vpn =
  if vpn < 0 || vpn >= Addr.max_va lsr Addr.page_shift then
    invalid_arg "Page_table: vpn out of range"

let bump = function
  | Leaf l -> l.refs <- l.refs + 1
  | Inner i -> i.refs <- i.refs + 1

(* One leaf's worth of frame numbers, per domain: the leaf passes below
   gather into it instead of allocating a major-heap array per call. *)
let scratch = Domain.DLS.new_key (fun () -> Array.make Addr.entries_per_table 0)

(* [f frames fs n] on the [n] present frames of a leaf, gathered into
   the domain's scratch [fs]. *)
let leaf_frames frames entries f =
  let buf = Domain.DLS.get scratch in
  f frames buf
    (Pte.frames_of_run entries ~lo:0 ~hi:(Addr.entries_per_table - 1) ~dst:buf)

(* One more owner is about to write through [node]: give the caller a
   copy it owns exclusively. A leaf copy takes its own reference on
   every frame it maps; an inner copy's children keep their identity and
   gain a reference from the copy. Nodes already exclusively owned are
   returned as-is. *)
let privatize frames = function
  | Leaf l when l.refs > 1 ->
    l.refs <- l.refs - 1;
    let entries = copy_leaf frames l.entries in
    leaf_frames frames entries Frame.incref_many;
    Leaf { refs = 1; clean = false; entries }
  | Inner i when i.refs > 1 ->
    i.refs <- i.refs - 1;
    let children = take_inner frames in
    Array.blit i.children 0 children 0 Addr.entries_per_table;
    Array.iter (function None -> () | Some c -> bump c) children;
    Inner { refs = 1; children }
  | n -> n

let entry leaf i =
  if Array.length leaf = 0 then Pte.absent else Array.unsafe_get leaf i

(* Read-only walk from the root (level = levels-1) down to the leaf. *)
let rec walk_ro node level vpn =
  match node with
  | Leaf l -> l.entries
  | Inner i -> (
    match i.children.(Addr.table_index ~level vpn) with
    | None -> no_leaf
    | Some child -> walk_ro child (level - 1) vpn)

(* Walk for writing: privatise every node on the path so mutating the
   returned leaf array cannot be observed through another table, and
   optionally create missing nodes ([t.nodes] counts this table's
   logical pages, so creation bumps it exactly like the eager walk).
   The leaf reached is no longer clean. *)
let leaf_for_write t vpn ~create_missing =
  let root = privatize t.frames (root t) in
  t.root <- root;
  let rec go node level =
    match node with
    | Leaf l ->
      l.clean <- false;
      l.entries
    | Inner i -> (
      let idx = Addr.table_index ~level vpn in
      match i.children.(idx) with
      | Some child ->
        let child' = privatize t.frames child in
        if child' != child then i.children.(idx) <- Some child';
        go child' (level - 1)
      | None ->
        if not create_missing then no_leaf
        else begin
          let child =
            if level = 1 then new_leaf t.frames else new_inner t.frames
          in
          i.children.(idx) <- Some child;
          t.nodes <- t.nodes + 1;
          go child (level - 1)
        end)
  in
  go root (Addr.levels - 1)

let map t ~vpn pte =
  check_vpn vpn;
  if not (Pte.present pte) then invalid_arg "Page_table.map: absent pte";
  let entries = leaf_for_write t vpn ~create_missing:true in
  let idx = Addr.table_index ~level:0 vpn in
  let old = entries.(idx) in
  if not (Pte.present old) then t.present <- t.present + 1;
  if Pte.lazy_ old then t.lazy_ <- t.lazy_ - 1;
  entries.(idx) <- pte

let unmap t ~vpn =
  check_vpn vpn;
  let entries = leaf_for_write t vpn ~create_missing:false in
  let idx = Addr.table_index ~level:0 vpn in
  let old = entry entries idx in
  if Pte.present old then begin
    entries.(idx) <- Pte.absent;
    t.present <- t.present - 1
  end
  else if Pte.lazy_ old then begin
    entries.(idx) <- Pte.absent;
    t.lazy_ <- t.lazy_ - 1
  end;
  old

let lookup t ~vpn =
  check_vpn vpn;
  entry (walk_ro (root t) (Addr.levels - 1) vpn) (Addr.table_index ~level:0 vpn)

let find_leaf t ~vpn =
  check_vpn vpn;
  walk_ro (root t) (Addr.levels - 1) vpn

let writable_leaf t ~vpn =
  check_vpn vpn;
  leaf_for_write t vpn ~create_missing:true

let update t ~vpn f =
  let old = lookup t ~vpn in
  if not (Pte.present old) then false
  else begin
    let updated = f old in
    if not (Pte.present updated) then
      invalid_arg "Page_table.update: function returned absent pte";
    if updated <> old then
      (leaf_for_write t vpn ~create_missing:false).(Addr.table_index ~level:0 vpn)
      <- updated;
    true
  end

let present_count t = t.present
let lazy_count t = t.lazy_
let node_count t = t.nodes
let note_mapped t n = t.present <- t.present + n
let note_resolved t n = t.lazy_ <- t.lazy_ - n

(* Every entry satisfying [keep], in increasing vpn order. The vpn is
   rebuilt on the way down: each level's child index adds 9 more bits. *)
let fold_entries t ~keep ~init ~f =
  let rec go node vpn_prefix acc =
    match node with
    | Leaf l ->
      let acc = ref acc in
      for i = 0 to Addr.entries_per_table - 1 do
        if keep l.entries.(i) then
          acc := f !acc ~vpn:((vpn_prefix lsl Addr.index_bits) lor i)
              l.entries.(i)
      done;
      !acc
    | Inner inner ->
      let acc = ref acc in
      for i = 0 to Addr.entries_per_table - 1 do
        match inner.children.(i) with
        | None -> ()
        | Some child ->
          acc := go child ((vpn_prefix lsl Addr.index_bits) lor i) !acc
      done;
      !acc
  in
  go (root t) 0 init

let fold_present t ~init ~f = fold_entries t ~keep:Pte.present ~init ~f
let fold_lazy t ~init ~f = fold_entries t ~keep:Pte.lazy_ ~init ~f

(* Leaf-granular cursor over [vpn0, vpn1]: one callback per leaf
   position, in ascending vpn order. O(leaves * levels), never
   O(pages). *)
let fold_leaves t ~vpn0 ~vpn1 ~init ~missing ~leaf =
  if vpn1 < vpn0 then init
  else begin
  check_vpn vpn0;
  check_vpn vpn1;
  let acc = ref init in
  let li = ref (vpn0 lsr Addr.index_bits) in
  let last = vpn1 lsr Addr.index_bits in
  while !li <= last do
    let base = !li lsl Addr.index_bits in
    let lo = if base < vpn0 then vpn0 - base else 0 in
    let hi =
      if base + Addr.entries_per_table - 1 > vpn1 then vpn1 - base
      else Addr.entries_per_table - 1
    in
    let entries = walk_ro (root t) (Addr.levels - 1) base in
    (if Array.length entries > 0 then
       let writable () = leaf_for_write t base ~create_missing:false in
       acc := leaf !acc ~base ~entries ~lo ~hi ~writable
     else
       let materialize () = leaf_for_write t base ~create_missing:true in
       acc := missing !acc ~vpn:(base + lo) ~span:(hi - lo + 1) ~materialize);
    incr li
  done;
  !acc
  end

(* Install a run of lazy (demand-paged) entries over an absent range,
   locating each leaf once: page k of the run carries cookie
   [cookie0 + k*stride] (stride 1 indexes consecutive image pages,
   stride 0 repeats a constant source cookie). No frame is allocated
   and no byte copied — this is the O(ranges) map the lazy exec/spawn
   paths buy. The range must be wholly absent (the loader maps into
   fresh VMAs). *)
let map_lazy_range t ~vpn ~n ~cookie0 ~stride ~perm =
  if n > 0 then begin
    check_vpn vpn;
    check_vpn (vpn + n - 1);
    if cookie0 < 0 || stride < 0 then
      invalid_arg "Page_table.map_lazy_range: bad cookie run";
    let install entries ~at ~from ~span =
      Pte.lazy_blit_run ~cookie0:(cookie0 + (from * stride)) ~stride ~n:span
        ~perm entries ~at;
      t.lazy_ <- t.lazy_ + span
    in
    ignore
      (fold_leaves t ~vpn0:vpn ~vpn1:(vpn + n - 1) ~init:()
         ~missing:(fun () ~vpn:v ~span ~materialize ->
           install (materialize ())
             ~at:(v land (Addr.entries_per_table - 1))
             ~from:(v - vpn) ~span)
         ~leaf:(fun () ~base ~entries ~lo ~hi ~writable ->
           for i = lo to hi do
             if entries.(i) <> Pte.absent then
               invalid_arg "Page_table.map_lazy_range: occupied slot"
           done;
           install (writable ()) ~at:lo ~from:(base + lo - vpn)
             ~span:(hi - lo + 1)))
  end

let protect_range t ~vpn0 ~vpn1 ~f =
  if vpn1 < vpn0 then 0
  else
    fold_leaves t ~vpn0 ~vpn1 ~init:0
      ~missing:(fun acc ~vpn:_ ~span:_ ~materialize:_ -> acc)
      ~leaf:(fun acc ~base:_ ~entries ~lo ~hi ~writable ->
        let any = ref false in
        (try
           for i = lo to hi do
             if Pte.present entries.(i) then begin
               any := true;
               raise Exit
             end
           done
         with Exit -> ());
        if not !any then acc
        else begin
          let entries = writable () in
          let n = ref 0 in
          for i = lo to hi do
            let pte = entries.(i) in
            if Pte.present pte then begin
              let updated = f pte in
              if not (Pte.present updated) then
                invalid_arg "Page_table.protect_range: absent pte";
              entries.(i) <- updated;
              incr n
            end
          done;
          acc + !n
        end)

let unmap_range t ~vpn0 ~vpn1 ~f =
  if vpn1 < vpn0 then 0
  else
    fold_leaves t ~vpn0 ~vpn1 ~init:0
      ~missing:(fun acc ~vpn:_ ~span:_ ~materialize:_ -> acc)
      ~leaf:(fun acc ~base:_ ~entries ~lo ~hi ~writable ->
        let any = ref false in
        (try
           for i = lo to hi do
             if entries.(i) <> Pte.absent then begin
               any := true;
               raise Exit
             end
           done
         with Exit -> ());
        if not !any then acc
        else begin
          let entries = writable () in
          let n = ref 0 and dropped_lazy = ref 0 in
          for i = lo to hi do
            let pte = entries.(i) in
            if Pte.present pte then begin
              f pte;
              entries.(i) <- Pte.absent;
              incr n
            end
            else if Pte.lazy_ pte then begin
              (* unbacked entry: nothing to release, just forget it *)
              entries.(i) <- Pte.absent;
              incr dropped_lazy
            end
          done;
          t.present <- t.present - !n;
          t.lazy_ <- t.lazy_ - !dropped_lazy;
          acc + !n
        end)

let clone_cow t ~cost =
  let p = Cost.params cost in
  let nodes = ref 0 in
  let present = ref 0 in
  let lazies = ref 0 in
  let rec copy node =
    incr nodes;
    Cost.charge cost Fork_pt_node p.Cost.pt_node_copy;
    match node with
    | Leaf l ->
      let dst = take_leaf t.frames in
      (* the downgrade below writes the parent's leaf in place *)
      l.clean <- false;
      for i = 0 to Addr.entries_per_table - 1 do
        let pte = l.entries.(i) in
        if Pte.present pte then begin
          Cost.charge cost Fork_pte p.Cost.pte_copy;
          incr present;
          (* the copied leaf is a new owner of the frame *)
          Frame.incref t.frames (Pte.frame pte);
          let shared =
            if (Pte.perm pte).Perm.write then
              (* downgrade to read-only COW in both tables *)
              Pte.with_cow
                (Pte.with_perm pte
                   { (Pte.perm pte) with Perm.write = false })
                true
            else pte
          in
          l.entries.(i) <- shared;
          dst.(i) <- shared
        end
        else if Pte.lazy_ pte then begin
          (* an unbacked entry is still a PTE word the fork copies; both
             sides keep the cookie and fault their page independently *)
          Cost.charge cost Fork_pte p.Cost.pte_copy;
          incr lazies;
          dst.(i) <- pte
        end
        else dst.(i) <- Pte.absent
      done;
      Leaf { refs = 1; clean = false; entries = dst }
    | Inner inner ->
      let dst = take_inner t.frames in
      for i = 0 to Addr.entries_per_table - 1 do
        dst.(i) <-
          (match inner.children.(i) with
          | None -> None
          | Some child -> Some (copy child))
      done;
      Inner { refs = 1; children = dst }
  in
  let root = copy (root t) in
  { t with root; present = !present; lazy_ = !lazies; nodes = !nodes }

(* The fork transform a PTE undergoes during {!clone_cow} followed by
   the shared-VMA fixup the address space applies afterwards, fused:
   pages of shared VMAs end up at the region permission with COW clear,
   private writable pages are downgraded to read-only COW. *)
let fork_transform pte ~shared_perm =
  match shared_perm with
  | Some rperm ->
    if (Pte.perm pte).Perm.write || Pte.cow pte then
      Pte.with_cow (Pte.with_perm pte rperm) false
    else pte
  | None ->
    if (Pte.perm pte).Perm.write then
      Pte.with_cow
        (Pte.with_perm pte { (Pte.perm pte) with Perm.write = false })
        true
    else pte

(* A second table over the same nodes. *)
let alias t =
  bump t.root;
  { t with root = t.root }

(* The fork pass behind {!clone_cow_shared} and {!seal}; a seal also
   pins each leaf's frames once the leaf is transformed, clean or not. *)
let share t ~cost ~shared ~pin =
  let p = Cost.params cost in
  (* Charge what the eager walk would have: one pt_node_copy per table
     page (empty ones included — the eager walk copies those too) and
     one pte_copy per present entry. All cost parameters are
     integer-valued, so n summed charges and one charge of n*c are the
     same float exactly. *)
  Cost.charge ~n:t.nodes cost Fork_pt_node
    (p.Cost.pt_node_copy *. float_of_int t.nodes);
  let ptes = t.present + t.lazy_ in
  if ptes > 0 then
    Cost.charge ~n:ptes cost Fork_pte (p.Cost.pte_copy *. float_of_int ptes);
  (* One ascending pass over the leaves applying the fork transform in
     place; the leaves keep their frame references, now on behalf of
     both tables. The transform maps every entry of a clean leaf to
     itself: a pass left it in post-fork form (writable private pages
     downgraded, shared-VMA pages at their region permission) and no
     table has written to it since, so the pass skips it. A leaf still
     shared with an earlier clone is clean, since a write privatises it
     first, so no in-place write is seen through another table. A
     change to a VMA's permission or sharing rewrites or drops the
     leaf's entries in its range, and so unmarks the leaf. *)
  let shared_tail = ref shared in
  let transform_leaf entries base =
    (* drop shared ranges wholly below this leaf, then test whether any
       remaining one overlaps it *)
    let rec advance () =
      match !shared_tail with
      | (_, hi, _) :: rest when hi < base ->
        shared_tail := rest;
        advance ()
      | l -> l
    in
    let overlaps_leaf =
      match advance () with
      | (lo, _, _) :: _ -> lo <= base + Addr.entries_per_table - 1
      | [] -> false
    in
    if not overlaps_leaf then
      (* the common private-only leaf: one batch downgrade *)
      Pte.downgrade_run entries ~lo:0 ~hi:(Addr.entries_per_table - 1)
    else
      for i = 0 to Addr.entries_per_table - 1 do
        let pte = entries.(i) in
        if Pte.present pte then begin
          let vpn = base lor i in
          let rec perm_for () =
            match !shared_tail with
            | (_, hi, _) :: rest when hi < vpn ->
              shared_tail := rest;
              perm_for ()
            | (lo, _, rperm) :: _ when lo <= vpn -> Some rperm
            | _ -> None
          in
          let updated = fork_transform pte ~shared_perm:(perm_for ()) in
          if updated <> pte then entries.(i) <- updated
        end
      done
  in
  let rec go node level vpn_prefix =
    match node with
    | Leaf l ->
      if not l.clean then begin
        transform_leaf l.entries (vpn_prefix lsl Addr.index_bits);
        l.clean <- true
      end;
      if pin then leaf_frames t.frames l.entries Frame.pin_many
    | Inner i ->
      for idx = 0 to Addr.entries_per_table - 1 do
        match i.children.(idx) with
        | None -> ()
        | Some child ->
          go child (level - 1) ((vpn_prefix lsl Addr.index_bits) lor idx)
      done
  in
  go (root t) (Addr.levels - 1) 0;
  alias t

let clone_cow_shared t ~cost ~shared = share t ~cost ~shared ~pin:false
let seal t ~cost ~shared = share t ~cost ~shared ~pin:true

(* Clone from a sealed table: every frame behind it is immortal and
   every PTE is already in post-fork form, so there is nothing to
   transform and no per-page refcount work — bump the root and charge
   one node copy per top-level subtree. This is the O(shared subtrees)
   spawn the zygote subsystem sells: cost is the root fan-out, not the
   footprint. *)
let clone_sealed t ~cost =
  let p = Cost.params cost in
  let subtrees =
    match root t with
    | Leaf _ -> 1
    | Inner i ->
      Array.fold_left
        (fun n c -> match c with None -> n | Some _ -> n + 1)
        0 i.children
  in
  let n = max subtrees 1 in
  Cost.charge ~n cost Zygote_subtree (p.Cost.pt_node_copy *. float_of_int n);
  (alias t, subtrees)

let clear t =
  let present = t.present in
  (* Drop this table's reference on every node, in ascending vpn order.
     A leaf that loses its last reference drops its frames' references
     ([Frame.decref_many] per leaf), so frames are freed in the order a
     per-page walk would free them; a node that loses its last
     reference gives its array back to the machine's stack once its
     children are released. Nodes still shared with a clone survive
     under the other table, references and all. *)
  let rec release = function
    | Leaf l ->
      l.refs <- l.refs - 1;
      if l.refs = 0 then begin
        leaf_frames t.frames l.entries Frame.decref_many;
        push (Frame.spares t.frames).leaves l.entries
      end
    | Inner i ->
      i.refs <- i.refs - 1;
      if i.refs = 0 then begin
        Array.iter (function None -> () | Some c -> release c) i.children;
        push (Frame.spares t.frames).inners i.children
      end
  in
  release (root t);
  t.root <- dropped;
  t.present <- 0;
  t.lazy_ <- 0;
  t.nodes <- 0;
  present

(* A resident page is exclusively this table's when no node above it is
   shared and no other leaf maps its frame; shared subtrees that map no
   present page do not matter. *)
let sole_owner t =
  let rec go shared = function
    | Leaf l ->
      let shared = shared || l.refs > 1 in
      leaf_frames t.frames l.entries (fun frames fs n ->
          if shared then n = 0
          else begin
            let i = ref 0 in
            while !i < n && Frame.refcount frames fs.(!i) = 1 do
              incr i
            done;
            !i = n
          end)
    | Inner i ->
      let shared = shared || i.refs > 1 in
      Array.for_all (function None -> true | Some c -> go shared c) i.children
  in
  go false (root t)

(* Arrays by identity: a node's array is its own, never shared between
   two node records, and sits in its machine's stack only once its node
   is dead. *)
module Arrays (E : sig
  type t

  val kind : string
end) =
struct
  include Hashtbl.Make (struct
    type t = E.t array

    let equal = ( == )
    let hash = Hashtbl.hash
  end)

  (* Error unless the stack holds each array once and none of [live]. *)
  let check_stack (s : E.t Frame.stack) live =
    let seen = create 64 in
    let rec go k =
      if k = s.top then Ok ()
      else
        let a = s.arrays.(k) in
        if mem seen a then Error (E.kind ^ " stack holds an array twice")
        else if mem live a then
          Error (E.kind ^ " stack holds a live node's array")
        else begin
          add seen a ();
          go (k + 1)
        end
    in
    go 0
end

module Leaves = Arrays (struct
  type t = int

  let kind = "leaf"
end)

module Inners = Arrays (struct
  type t = node option

  let kind = "inner"
end)

(* The ownership rule; the live nodes' arrays when it holds. *)
let check_frames frames tables =
  let leaf_arrays = Leaves.create 64 and inner_arrays = Inners.create 64 in
  let mapped = Hashtbl.create 256 in
  let count pte =
    if Pte.present pte then
      let f = Pte.frame pte in
      Hashtbl.replace mapped f
        (1 + Option.value ~default:0 (Hashtbl.find_opt mapped f))
  in
  let rec visit = function
    | Leaf l ->
      if not (Leaves.mem leaf_arrays l.entries) then begin
        Leaves.add leaf_arrays l.entries ();
        Array.iter count l.entries
      end
    | Inner i ->
      if not (Inners.mem inner_arrays i.children) then begin
        Inners.add inner_arrays i.children ();
        Array.iter (function None -> () | Some c -> visit c) i.children
      end
  in
  List.iter (fun t -> visit (root t)) tables;
  let bad =
    Hashtbl.fold
      (fun f leaves acc ->
        let rc = Frame.refcount frames f in
        if Frame.is_pinned frames f || rc = leaves then acc
        else
          (f, Printf.sprintf "frame %d: refcount %d, mapped by %d leaves" f rc
                leaves)
          :: acc)
      mapped []
  in
  match List.sort compare bad with
  | (_, msg) :: _ -> Error msg
  | [] ->
    let n = Hashtbl.length mapped in
    if n = Frame.used frames then Ok (leaf_arrays, inner_arrays)
    else
      Error
        (Printf.sprintf "%d frames allocated, %d mapped by a leaf"
           (Frame.used frames) n)

let audit = function
  | [] -> Ok ()
  | first :: _ as tables ->
    if List.exists (fun t -> t.frames != first.frames) tables then
      invalid_arg "Page_table.audit: tables of different machines";
    let spares = Frame.spares first.frames in
    Result.bind (check_frames first.frames tables)
      (fun (leaf_arrays, inner_arrays) ->
        Result.bind (Leaves.check_stack spares.leaves leaf_arrays) (fun () ->
            Inners.check_stack spares.inners inner_arrays))
