(* Unit, integration and property tests for the vmem substrate. *)

let check_int = Alcotest.(check int)
let check_bool = Alcotest.(check bool)
let check_str = Alcotest.(check string)

let ok = function
  | Ok v -> v
  | Error _ -> Alcotest.fail "expected Ok"

(* ------------------------------------------------------------------ *)
(* Addr *)

let test_addr_alignment () =
  check_bool "aligned 0" true (Vmem.Addr.is_page_aligned 0);
  check_bool "aligned 4096" true (Vmem.Addr.is_page_aligned 4096);
  check_bool "unaligned" false (Vmem.Addr.is_page_aligned 4097);
  check_int "down" 4096 (Vmem.Addr.align_down 8191);
  check_int "up" 8192 (Vmem.Addr.align_up 4097);
  check_int "up exact" 4096 (Vmem.Addr.align_up 4096)

let test_addr_pages () =
  check_int "page number" 2 (Vmem.Addr.page_number 8192);
  check_int "offset" 123 (Vmem.Addr.page_offset (8192 + 123));
  check_int "addr of page" 8192 (Vmem.Addr.addr_of_page 2);
  check_int "spanning 0" 0 (Vmem.Addr.pages_spanning 0 0);
  check_int "spanning 1" 1 (Vmem.Addr.pages_spanning 0 1);
  check_int "spanning exact" 1 (Vmem.Addr.pages_spanning 0 4096);
  check_int "spanning straddle" 2 (Vmem.Addr.pages_spanning 4095 2)

let test_addr_table_index () =
  let vpn = (3 lsl 27) lor (5 lsl 18) lor (7 lsl 9) lor 11 in
  check_int "l3" 3 (Vmem.Addr.table_index ~level:3 vpn);
  check_int "l2" 5 (Vmem.Addr.table_index ~level:2 vpn);
  check_int "l1" 7 (Vmem.Addr.table_index ~level:1 vpn);
  check_int "l0" 11 (Vmem.Addr.table_index ~level:0 vpn)

let prop_addr_align =
  QCheck.Test.make ~count:500 ~name:"addr: align_down/up bracket the address"
    QCheck.(int_bound (Vmem.Addr.max_va - Vmem.Addr.page_size))
    (fun a ->
      let d = Vmem.Addr.align_down a and u = Vmem.Addr.align_up a in
      d <= a && a <= u && u - d <= Vmem.Addr.page_size
      && Vmem.Addr.is_page_aligned d && Vmem.Addr.is_page_aligned u)

let prop_addr_index_recompose =
  QCheck.Test.make ~count:500 ~name:"addr: table indices recompose the vpn"
    QCheck.(int_bound ((Vmem.Addr.max_va lsr 12) - 1))
    (fun vpn ->
      let i l = Vmem.Addr.table_index ~level:l vpn in
      (i 3 lsl 27) lor (i 2 lsl 18) lor (i 1 lsl 9) lor i 0 = vpn)

(* ------------------------------------------------------------------ *)
(* Perm *)

let test_perm_allows () =
  check_bool "rw allows r" true (Vmem.Perm.allows Vmem.Perm.rw Vmem.Perm.r);
  check_bool "r allows rw" false (Vmem.Perm.allows Vmem.Perm.r Vmem.Perm.rw);
  check_bool "anything allows none" true
    (Vmem.Perm.allows Vmem.Perm.none Vmem.Perm.none);
  check_bool "rwx allows rx" true (Vmem.Perm.allows Vmem.Perm.rwx Vmem.Perm.rx)

let test_perm_ops () =
  check_bool "union" true
    (Vmem.Perm.equal Vmem.Perm.rwx
       (Vmem.Perm.union Vmem.Perm.rw Vmem.Perm.rx));
  check_bool "inter" true
    (Vmem.Perm.equal Vmem.Perm.r (Vmem.Perm.inter Vmem.Perm.rw Vmem.Perm.rx));
  check_str "to_string" "rw-" (Vmem.Perm.to_string Vmem.Perm.rw);
  check_str "none" "---" (Vmem.Perm.to_string Vmem.Perm.none)

(* ------------------------------------------------------------------ *)
(* Frame *)

let test_frame_alloc_free () =
  let fr = Vmem.Frame.create ~frames:4 () in
  let a = ok (Vmem.Frame.alloc fr) in
  let b = ok (Vmem.Frame.alloc fr) in
  check_bool "distinct" true (a <> b);
  check_int "used" 2 (Vmem.Frame.used fr);
  check_int "free" 2 (Vmem.Frame.free fr);
  check_bool "freed" true (Vmem.Frame.decref fr a);
  check_int "used after" 1 (Vmem.Frame.used fr);
  (* freed frame is reused *)
  let c = ok (Vmem.Frame.alloc fr) in
  check_int "reuse" a c

let test_frame_refcount () =
  let fr = Vmem.Frame.create ~frames:4 () in
  let f = ok (Vmem.Frame.alloc fr) in
  check_int "rc1" 1 (Vmem.Frame.refcount fr f);
  Vmem.Frame.incref fr f;
  check_int "rc2" 2 (Vmem.Frame.refcount fr f);
  check_bool "not freed" false (Vmem.Frame.decref fr f);
  check_bool "freed" true (Vmem.Frame.decref fr f);
  check_int "rc0" 0 (Vmem.Frame.refcount fr f)

let test_frame_oom () =
  let fr = Vmem.Frame.create ~frames:2 () in
  ignore (ok (Vmem.Frame.alloc fr));
  ignore (ok (Vmem.Frame.alloc fr));
  (match Vmem.Frame.alloc fr with
  | Error `Out_of_memory -> ()
  | Ok _ -> Alcotest.fail "expected OOM")

let test_frame_unallocated_ops () =
  let fr = Vmem.Frame.create ~frames:2 () in
  Alcotest.check_raises "incref" (Invalid_argument "Frame.incref: unallocated frame")
    (fun () -> Vmem.Frame.incref fr 0)

let test_frame_commit () =
  let fr = Vmem.Frame.create ~frames:10 () in
  ok (Vmem.Frame.commit fr 8);
  check_int "committed" 8 (Vmem.Frame.committed fr);
  (match Vmem.Frame.commit fr 3 with
  | Error `Commit_limit -> ()
  | Ok () -> Alcotest.fail "expected commit failure");
  Vmem.Frame.uncommit fr 4;
  ok (Vmem.Frame.commit fr 3);
  check_int "committed after" 7 (Vmem.Frame.committed fr)

let test_frame_overcommit () =
  let fr = Vmem.Frame.create ~policy:Vmem.Frame.Overcommit ~frames:10 () in
  ok (Vmem.Frame.commit fr 1000);
  check_int "committed" 1000 (Vmem.Frame.committed fr)

let test_frame_data () =
  let fr = Vmem.Frame.create ~frames:4 () in
  let f = ok (Vmem.Frame.alloc fr) in
  check_str "zero before write" "\000" (Vmem.Frame.read_string fr f ~off:100 ~len:1);
  Vmem.Frame.blit_string fr f ~off:100 "*";
  check_str "read back" "*" (Vmem.Frame.read_string fr f ~off:100 ~len:1);
  Vmem.Frame.blit_string fr f ~off:0 "hi";
  check_str "string" "hi" (Vmem.Frame.read_string fr f ~off:0 ~len:2);
  Vmem.Frame.blit_string fr f ~off:8 ~pos:1 ~len:2 "xyz";
  check_str "substring" "yz" (Vmem.Frame.read_string fr f ~off:8 ~len:2);
  let buf = Bytes.make 4 '.' in
  Vmem.Frame.read_into fr f ~off:0 ~len:2 buf ~pos:1;
  check_str "read into" ".hi." (Bytes.to_string buf);
  let g = ok (Vmem.Frame.alloc fr) in
  Vmem.Frame.copy_contents fr ~src:f ~dst:g;
  check_str "copied" "*" (Vmem.Frame.read_string fr g ~off:100 ~len:1)

let test_frame_free_discards_data () =
  let fr = Vmem.Frame.create ~frames:1 () in
  let f = ok (Vmem.Frame.alloc fr) in
  Vmem.Frame.blit_string fr f ~off:0 "\007";
  ignore (Vmem.Frame.decref fr f);
  let f' = ok (Vmem.Frame.alloc fr) in
  check_int "same slot" f f';
  check_str "zeroed" "\000" (Vmem.Frame.read_string fr f' ~off:0 ~len:1)

let test_frame_pin () =
  let fr = Vmem.Frame.create ~frames:8 () in
  let f = ok (Vmem.Frame.alloc fr) in
  check_bool "not pinned" false (Vmem.Frame.is_pinned fr f);
  Vmem.Frame.pin fr f;
  check_bool "pinned" true (Vmem.Frame.is_pinned fr f);
  check_int "pinned count" 1 (Vmem.Frame.pinned fr);
  check_int "refcount saturates" max_int (Vmem.Frame.refcount fr f);
  (* refcounting is a no-op on a pinned frame: it can never be freed *)
  Vmem.Frame.incref fr f;
  check_bool "decref no-op" false (Vmem.Frame.decref fr f);
  check_bool "still pinned" true (Vmem.Frame.is_pinned fr f);
  check_int "still used" 1 (Vmem.Frame.used fr);
  (* pin is idempotent *)
  Vmem.Frame.pin fr f;
  check_int "still one pinned" 1 (Vmem.Frame.pinned fr);
  (* unpin restores a plain sole-owner reference *)
  Vmem.Frame.unpin fr f;
  check_int "rc back to 1" 1 (Vmem.Frame.refcount fr f);
  check_int "none pinned" 0 (Vmem.Frame.pinned fr);
  check_bool "freed" true (Vmem.Frame.decref fr f);
  check_int "all returned" 0 (Vmem.Frame.used fr)

let test_frame_pin_spilled () =
  (* pinning a frame whose count lives in the spill table drops the
     spill entry; unpin yields rc 1, not the old spilled count *)
  let fr = Vmem.Frame.create ~frames:4 () in
  let f = ok (Vmem.Frame.alloc fr) in
  for _ = 1 to 300 do
    Vmem.Frame.incref fr f
  done;
  check_int "spilled rc" 301 (Vmem.Frame.refcount fr f);
  Vmem.Frame.pin fr f;
  check_int "saturated" max_int (Vmem.Frame.refcount fr f);
  Vmem.Frame.unpin fr f;
  check_int "unpin forgets spilled count" 1 (Vmem.Frame.refcount fr f);
  check_bool "freed" true (Vmem.Frame.decref fr f)

let test_frame_pin_many () =
  let fr = Vmem.Frame.create ~frames:8 () in
  let fs = Array.init 4 (fun _ -> ok (Vmem.Frame.alloc fr)) in
  Vmem.Frame.pin_many fr fs 3;
  check_int "three pinned" 3 (Vmem.Frame.pinned fr);
  check_bool "fourth untouched" false (Vmem.Frame.is_pinned fr fs.(3));
  Alcotest.check_raises "unpin unpinned"
    (Invalid_argument "Frame.unpin: frame not pinned") (fun () ->
      Vmem.Frame.unpin fr fs.(3))

(* [Frame.unshare_many] against the per-page COW-break sequence it
   makes in one loop. A 48-frame machine hands out frames 0 .. n-1,
   writes some of them and gives each a class; freed ones go back in
   ascending order, so the free stack holds runs, and frames n .. 47
   are still fresh. The run names live frames, repeats allowed, and a
   deny hook may refuse the k-th allocation. *)
type frame_class = Count of int | Pinned | Freed

let unshare_frames = 48

let unshare_per_page fr fs n =
  let rec go k =
    if k = n then k
    else
      let f = fs.(k) in
      if Vmem.Frame.refcount fr f = 1 then go (k + 1)
      else
        let fresh = Vmem.Frame.take fr in
        if fresh < 0 then k
        else begin
          Vmem.Frame.copy_contents fr ~src:f ~dst:fresh;
          ignore (Vmem.Frame.decref fr f);
          fs.(k) <- fresh;
          go (k + 1)
        end
  in
  go 0

let gen_unshare_machine =
  QCheck.Gen.(
    let cls =
      frequency
        [
          (4, return (Count 1));
          (4, return (Count 2));
          (1, return (Count 253));
          (* spilled: the true count lives in the spill table *)
          (1, map (fun k -> Count (254 + k)) (int_bound 4));
          (1, return Pinned);
          (3, return Freed);
        ]
    in
    let* n = 1 -- 44 in
    let* classes = array_repeat n (pair cls bool) in
    let* picks = list_size (0 -- 24) (int_bound 1000) in
    let+ deny_at = opt (1 -- 8) in
    (classes, picks, deny_at))

let print_unshare_machine (classes, picks, deny_at) =
  let cls = function
    | Count c, w -> Printf.sprintf "%d%s" c (if w then "w" else "")
    | Pinned, w -> "pin" ^ if w then "w" else ""
    | Freed, _ -> "free"
  in
  Printf.sprintf "classes [%s] picks [%s] deny %s"
    (String.concat " " (Array.to_list (Array.map cls classes)))
    (String.concat " " (List.map string_of_int picks))
    (match deny_at with Some k -> string_of_int k | None -> "-")

let prop_unshare_many =
  QCheck.Test.make ~count:300 ~long_factor:20
    ~name:"unshare_many matches the per-page COW break"
    (QCheck.make ~print:print_unshare_machine gen_unshare_machine)
    (fun (classes, picks, deny_at) ->
      let page = Vmem.Addr.page_size in
      let run unshare =
        let fr = Vmem.Frame.create ~frames:unshare_frames () in
        Array.iter (fun _ -> ignore (Vmem.Frame.take fr)) classes;
        Array.iteri
          (fun f (cls, written) ->
            if written then
              Vmem.Frame.blit_string fr f ~off:(f * 61)
                (Printf.sprintf "frame %d" f);
            match cls with
            | Count c ->
              for _ = 2 to c do
                Vmem.Frame.incref fr f
              done
            | Pinned -> Vmem.Frame.pin fr f
            | Freed -> ignore (Vmem.Frame.decref fr f))
          classes;
        let live =
          List.filter (fun f -> fst classes.(f) <> Freed)
            (List.init (Array.length classes) Fun.id)
          |> Array.of_list
        in
        let fs =
          if live = [||] then [||]
          else
            Array.of_list
              (List.map (fun p -> live.(p mod Array.length live)) picks)
        in
        let draws = ref 0 in
        Vmem.Frame.set_deny_alloc fr
          (Option.map (fun k () -> incr draws; !draws = k) deny_at);
        let handled = unshare fr fs (Array.length fs) in
        Vmem.Frame.set_deny_alloc fr None;
        let buf = Bytes.create page in
        let frames =
          List.init unshare_frames (fun f ->
              let rc = Vmem.Frame.refcount fr f in
              if rc = 0 then (rc, "")
              else begin
                Vmem.Frame.read_into fr f ~off:0 ~len:page buf ~pos:0;
                (rc, Digest.bytes buf)
              end)
        in
        let next = List.init 16 (fun _ -> Vmem.Frame.take fr) in
        (handled, fs, frames, Vmem.Frame.used fr, Vmem.Frame.pinned fr, next)
      in
      run Vmem.Frame.unshare_many = run unshare_per_page)

(* ------------------------------------------------------------------ *)
(* Pte *)

let test_pte_roundtrip () =
  let pte = Vmem.Pte.make ~frame:1234 ~perm:Vmem.Perm.rw ~cow:true () in
  check_bool "present" true (Vmem.Pte.present pte);
  check_int "frame" 1234 (Vmem.Pte.frame pte);
  check_bool "perm" true (Vmem.Perm.equal Vmem.Perm.rw (Vmem.Pte.perm pte));
  check_bool "cow" true (Vmem.Pte.cow pte);
  check_bool "not dirty" false (Vmem.Pte.dirty pte);
  let pte = Vmem.Pte.mark_dirty (Vmem.Pte.mark_accessed pte) in
  check_bool "dirty" true (Vmem.Pte.dirty pte);
  check_bool "accessed" true (Vmem.Pte.accessed pte)

let test_pte_updates () =
  let pte = Vmem.Pte.make ~frame:5 ~perm:Vmem.Perm.rw () in
  let pte' = Vmem.Pte.with_perm pte Vmem.Perm.r in
  check_bool "downgraded" true
    (Vmem.Perm.equal Vmem.Perm.r (Vmem.Pte.perm pte'));
  check_int "frame preserved" 5 (Vmem.Pte.frame pte');
  let pte'' = Vmem.Pte.with_frame pte' 9 in
  check_int "frame swapped" 9 (Vmem.Pte.frame pte'');
  check_bool "perm preserved" true
    (Vmem.Perm.equal Vmem.Perm.r (Vmem.Pte.perm pte''))

let prop_pte_roundtrip =
  QCheck.Test.make ~count:500 ~name:"pte: make/accessors roundtrip"
    QCheck.(triple (int_bound 1_000_000) bool (pair bool bool))
    (fun (frame, cow, (w, x)) ->
      let perm = { Vmem.Perm.read = true; write = w; exec = x } in
      let pte = Vmem.Pte.make ~frame ~perm ~cow () in
      Vmem.Pte.frame pte = frame
      && Vmem.Perm.equal (Vmem.Pte.perm pte) perm
      && Vmem.Pte.cow pte = cow)

(* ------------------------------------------------------------------ *)
(* Page_table *)

(* A table whose entries name made-up frames: nothing below clones or
   clears it, so no frame count is ever touched. *)
let bare_pt () = Vmem.Page_table.create ~frames:(Vmem.Frame.create ~frames:1 ())

let test_pt_map_lookup () =
  let pt = bare_pt () in
  let pte = Vmem.Pte.make ~frame:7 ~perm:Vmem.Perm.rw () in
  Vmem.Page_table.map pt ~vpn:42 pte;
  check_bool "found" true (Vmem.Page_table.lookup pt ~vpn:42 = pte);
  check_bool "absent" false
    (Vmem.Pte.present (Vmem.Page_table.lookup pt ~vpn:43));
  check_int "present" 1 (Vmem.Page_table.present_count pt)

let test_pt_unmap () =
  let pt = bare_pt () in
  Vmem.Page_table.map pt ~vpn:1 (Vmem.Pte.make ~frame:1 ~perm:Vmem.Perm.r ());
  let old = Vmem.Page_table.unmap pt ~vpn:1 in
  check_bool "returned" true (Vmem.Pte.present old);
  check_int "empty" 0 (Vmem.Page_table.present_count pt);
  check_bool "double unmap absent" false
    (Vmem.Pte.present (Vmem.Page_table.unmap pt ~vpn:1))

let test_pt_node_growth () =
  let pt = bare_pt () in
  check_int "root only" 1 (Vmem.Page_table.node_count pt);
  Vmem.Page_table.map pt ~vpn:0 (Vmem.Pte.make ~frame:0 ~perm:Vmem.Perm.r ());
  (* root + 2 inner + 1 leaf *)
  check_int "one path" 4 (Vmem.Page_table.node_count pt);
  (* same leaf: no growth *)
  Vmem.Page_table.map pt ~vpn:1 (Vmem.Pte.make ~frame:1 ~perm:Vmem.Perm.r ());
  check_int "same leaf" 4 (Vmem.Page_table.node_count pt);
  (* far page: fresh path below root *)
  Vmem.Page_table.map pt ~vpn:(1 lsl 27)
    (Vmem.Pte.make ~frame:2 ~perm:Vmem.Perm.r ());
  check_int "new subtree" 7 (Vmem.Page_table.node_count pt)

let test_pt_fold_order () =
  let pt = bare_pt () in
  let vpns = [ 999; 3; 512; 100_000 ] in
  List.iter
    (fun v ->
      Vmem.Page_table.map pt ~vpn:v (Vmem.Pte.make ~frame:v ~perm:Vmem.Perm.r ()))
    vpns;
  let seen =
    Vmem.Page_table.fold_present pt ~init:[] ~f:(fun acc ~vpn pte ->
        check_int "frame matches vpn" vpn (Vmem.Pte.frame pte);
        vpn :: acc)
  in
  Alcotest.(check (list int)) "sorted" [ 3; 512; 999; 100_000 ] (List.rev seen)

let test_pt_update () =
  let pt = bare_pt () in
  check_bool "absent" false (Vmem.Page_table.update pt ~vpn:5 Vmem.Pte.mark_dirty);
  Vmem.Page_table.map pt ~vpn:5 (Vmem.Pte.make ~frame:5 ~perm:Vmem.Perm.rw ());
  check_bool "updated" true (Vmem.Page_table.update pt ~vpn:5 Vmem.Pte.mark_dirty);
  check_bool "dirty" true (Vmem.Pte.dirty (Vmem.Page_table.lookup pt ~vpn:5))

let test_pt_clone_cow () =
  let fr = Vmem.Frame.create ~frames:16 () in
  let cost = Vmem.Cost.create () in
  let pt = Vmem.Page_table.create ~frames:fr in
  let fa = ok (Vmem.Frame.alloc fr) in
  let fb = ok (Vmem.Frame.alloc fr) in
  Vmem.Page_table.map pt ~vpn:1 (Vmem.Pte.make ~frame:fa ~perm:Vmem.Perm.rw ());
  Vmem.Page_table.map pt ~vpn:2 (Vmem.Pte.make ~frame:fb ~perm:Vmem.Perm.r ());
  let child = Vmem.Page_table.clone_cow pt ~cost in
  check_int "present copied" 2 (Vmem.Page_table.present_count child);
  check_int "refcount a" 2 (Vmem.Frame.refcount fr fa);
  check_int "refcount b" 2 (Vmem.Frame.refcount fr fb);
  (* writable page downgraded in both *)
  let p1 = Vmem.Page_table.lookup pt ~vpn:1 in
  let c1 = Vmem.Page_table.lookup child ~vpn:1 in
  check_bool "parent cow" true (Vmem.Pte.cow p1);
  check_bool "child cow" true (Vmem.Pte.cow c1);
  check_bool "parent read-only" false (Vmem.Pte.perm p1).Vmem.Perm.write;
  (* read-only page untouched *)
  check_bool "ro not cow" false (Vmem.Pte.cow (Vmem.Page_table.lookup pt ~vpn:2));
  check_bool "charged" true (Vmem.Cost.total cost > 0.0)

let test_pt_clear () =
  let fr = Vmem.Frame.create ~frames:16 () in
  let pt = Vmem.Page_table.create ~frames:fr in
  for i = 0 to 4 do
    let f = ok (Vmem.Frame.alloc fr) in
    Vmem.Page_table.map pt ~vpn:i (Vmem.Pte.make ~frame:f ~perm:Vmem.Perm.rw ())
  done;
  check_int "dropped" 5 (Vmem.Page_table.clear pt);
  check_int "all freed" 0 (Vmem.Frame.used fr);
  check_int "empty" 0 (Vmem.Page_table.present_count pt);
  (* the table is dropped: a later walk fails instead of reading a leaf
     whose array went back to the machine's stack *)
  Alcotest.check_raises "walk after clear"
    (Invalid_argument "Page_table: walk of a cleared table") (fun () ->
      ignore (Vmem.Page_table.lookup pt ~vpn:0))

let prop_pt_map_unmap =
  QCheck.Test.make ~count:100 ~name:"page table: present_count tracks ops"
    QCheck.(list (int_bound 100_000))
    (fun vpns ->
      let pt = bare_pt () in
      let module IS = Set.Make (Int) in
      let live =
        List.fold_left
          (fun live vpn ->
            Vmem.Page_table.map pt ~vpn
              (Vmem.Pte.make ~frame:vpn ~perm:Vmem.Perm.r ());
            IS.add vpn live)
          IS.empty vpns
      in
      Vmem.Page_table.present_count pt = IS.cardinal live
      && IS.for_all
           (fun vpn -> Vmem.Pte.frame (Vmem.Page_table.lookup pt ~vpn) = vpn)
           live)

(* ------------------------------------------------------------------ *)
(* Region_map *)

let test_rm_add_overlap () =
  let m = ok (Vmem.Region_map.add ~start:100 ~stop:200 "a" Vmem.Region_map.empty) in
  (match Vmem.Region_map.add ~start:150 ~stop:160 "b" m with
  | Error `Overlap -> ()
  | Ok _ -> Alcotest.fail "expected overlap");
  (match Vmem.Region_map.add ~start:50 ~stop:101 "b" m with
  | Error `Overlap -> ()
  | Ok _ -> Alcotest.fail "expected overlap (left straddle)");
  let m = ok (Vmem.Region_map.add ~start:200 ~stop:300 "b" m) in
  check_int "two regions" 2 (Vmem.Region_map.cardinal m)

let test_rm_find () =
  let m = ok (Vmem.Region_map.add ~start:100 ~stop:200 "a" Vmem.Region_map.empty) in
  (match Vmem.Region_map.find_containing 150 m with
  | Some (100, 200, "a") -> ()
  | _ -> Alcotest.fail "find 150");
  check_bool "199 in" true (Vmem.Region_map.mem 199 m);
  check_bool "200 out (exclusive)" false (Vmem.Region_map.mem 200 m);
  check_bool "99 out" false (Vmem.Region_map.mem 99 m)

let no_crop ~old_start:_ ~start:_ ~stop:_ v = v

let test_rm_carve_middle () =
  let m = ok (Vmem.Region_map.add ~start:0 ~stop:100 "a" Vmem.Region_map.empty) in
  let m, removed = Vmem.Region_map.carve ~start:40 ~stop:60 ~crop:no_crop m in
  Alcotest.(check (list (triple int int string)))
    "removed middle" [ (40, 60, "a") ] removed;
  Alcotest.(check (list (triple int int string)))
    "kept sides" [ (0, 40, "a"); (60, 100, "a") ]
    (Vmem.Region_map.to_list m)

let test_rm_carve_span () =
  let m = ok (Vmem.Region_map.add ~start:0 ~stop:10 "a" Vmem.Region_map.empty) in
  let m = ok (Vmem.Region_map.add ~start:20 ~stop:30 "b" m) in
  let m, removed = Vmem.Region_map.carve ~start:5 ~stop:25 ~crop:no_crop m in
  Alcotest.(check (list (triple int int string)))
    "removed" [ (5, 10, "a"); (20, 25, "b") ] removed;
  Alcotest.(check (list (triple int int string)))
    "kept" [ (0, 5, "a"); (25, 30, "b") ]
    (Vmem.Region_map.to_list m)

let test_rm_carve_crop_callback () =
  (* payload records its offset from the original start, like a file VMA *)
  let m = ok (Vmem.Region_map.add ~start:100 ~stop:200 0 Vmem.Region_map.empty) in
  let crop ~old_start ~start ~stop:_ off = off + (start - old_start) in
  let m, removed = Vmem.Region_map.carve ~start:150 ~stop:160 ~crop m in
  Alcotest.(check (list (triple int int int))) "mid offset" [ (150, 160, 50) ] removed;
  (match Vmem.Region_map.to_list m with
  | [ (100, 150, 0); (160, 200, 60) ] -> ()
  | _ -> Alcotest.fail "kept fragments wrong")

let test_rm_find_gap () =
  let m = ok (Vmem.Region_map.add ~start:100 ~stop:200 "a" Vmem.Region_map.empty) in
  let m = ok (Vmem.Region_map.add ~start:250 ~stop:300 "b" m) in
  Alcotest.(check (option int)) "before" (Some 0)
    (Vmem.Region_map.find_gap ~min:0 ~max:1000 ~len:50 m);
  Alcotest.(check (option int)) "between" (Some 200)
    (Vmem.Region_map.find_gap ~min:150 ~max:1000 ~len:50 m);
  Alcotest.(check (option int)) "after" (Some 300)
    (Vmem.Region_map.find_gap ~min:150 ~max:1000 ~len:80 m);
  Alcotest.(check (option int)) "fits exactly before" (Some 0)
    (Vmem.Region_map.find_gap ~min:0 ~max:320 ~len:100 m);
  Alcotest.(check (option int)) "too big" None
    (Vmem.Region_map.find_gap ~min:0 ~max:320 ~len:150 m)

let prop_rm_invariant =
  (* apply random add/carve ops; intervals must stay disjoint and sorted *)
  let op =
    QCheck.Gen.(
      oneof
        [
          map2 (fun s l -> `Add (s * 10, l)) (int_bound 100) (1 -- 5);
          map2 (fun s l -> `Carve (s * 10, l)) (int_bound 100) (1 -- 5);
        ])
  in
  QCheck.Test.make ~count:200 ~name:"region map: disjoint sorted invariant"
    (QCheck.make QCheck.Gen.(list_size (1 -- 40) op))
    (fun ops ->
      let m =
        List.fold_left
          (fun m op ->
            match op with
            | `Add (s, l) -> (
              match Vmem.Region_map.add ~start:s ~stop:(s + (l * 10)) () m with
              | Ok m -> m
              | Error `Overlap -> m)
            | `Carve (s, l) ->
              fst (Vmem.Region_map.carve ~start:s ~stop:(s + (l * 10)) ~crop:no_crop m))
          Vmem.Region_map.empty ops
      in
      let l = Vmem.Region_map.to_list m in
      let rec disjoint = function
        | (_, e1, ()) :: ((s2, _, ()) :: _ as rest) -> e1 <= s2 && disjoint rest
        | [ _ ] | [] -> true
      in
      disjoint l
      && Vmem.Region_map.total_length m
         = List.fold_left (fun acc (s, e, ()) -> acc + e - s) 0 l)

(* ------------------------------------------------------------------ *)
(* Cost *)

let test_cost_table () =
  let names = List.map (fun c -> (Vmem.Cost.info c).name) Vmem.Cost.all in
  check_int "unique names" 22 (List.length (List.sort_uniq compare names));
  List.iteri
    (fun i c ->
      let { Vmem.Cost.idx; name; group } = Vmem.Cost.info c in
      check_int (name ^ " slot") i idx;
      check_bool (name ^ " group") true (List.mem group Vmem.Cost.group_order))
    Vmem.Cost.all;
  (* one category's charge moves its own slot and the total, no other *)
  List.iter
    (fun c ->
      let m = Vmem.Cost.create () in
      Vmem.Cost.charge ~n:3 m c 7.0;
      Alcotest.(check (float 0.0)) "total" 7.0 (Vmem.Cost.total m);
      List.iter
        (fun d ->
          Alcotest.(check (float 0.0))
            "cycles" (if d = c then 7.0 else 0.0) (Vmem.Cost.get m d);
          check_int "events" (if d = c then 3 else 0) (Vmem.Cost.count m d))
        Vmem.Cost.all)
    Vmem.Cost.all;
  (* descending cycles, ties by name whichever is charged first, and a
     zero charge of zero events is still listed *)
  List.iter
    (fun tied ->
      let m = Vmem.Cost.create () in
      List.iter (fun c -> Vmem.Cost.charge m c 12_600.0) tied;
      Vmem.Cost.charge ~n:0 m Fork_vma 0.0;
      Vmem.Cost.charge m Fault_base 20_000.0;
      Alcotest.(check (list (pair string (pair (float 0.0) int))))
        "entries"
        [
          ("fault:base", (20_000.0, 1));
          ("exec:load-page", (12_600.0, 1));
          ("syscall", (12_600.0, 1));
          ("fork:vma", (0.0, 0));
        ]
        (Vmem.Cost.by_category_counts m))
    [ [ Vmem.Cost.Syscall; Exec_load_page ]; [ Exec_load_page; Syscall ] ]

(* A NaN charge would poison every total after it, so it is rejected
   like a negative one, leaving the meter as it was. *)
let test_cost_rejects_nan () =
  let m = Vmem.Cost.create () in
  Vmem.Cost.charge m Fault_base 2_500.0;
  List.iter
    (fun bad ->
      check_bool "rejected" true
        (match Vmem.Cost.charge m Fault_base bad with
        | () -> false
        | exception Invalid_argument _ -> true))
    [ Float.nan; -1.0 ];
  Alcotest.(check (float 0.0)) "total" 2_500.0 (Vmem.Cost.total m);
  check_int "events" 1 (Vmem.Cost.count m Fault_base)

(* ------------------------------------------------------------------ *)
(* Tlb *)

let test_tlb_accounting () =
  let cost = Vmem.Cost.create () in
  let tlb = Vmem.Tlb.create ~cpus:4 cost in
  Vmem.Tlb.flush_local tlb;
  Vmem.Tlb.shootdown tlb;
  Vmem.Tlb.invalidate_page tlb;
  check_int "flushes" 2 (Vmem.Cost.count cost Tlb_flush);
  (* shootdown counts its own local flush *)
  check_int "shootdowns" 1 (Vmem.Cost.count cost Tlb_shootdown);
  check_int "invl" 1 (Vmem.Cost.count cost Tlb_invlpg);
  let p = Vmem.Cost.params cost in
  Alcotest.(check (float 0.01))
    "shootdown cycles"
    (p.Vmem.Cost.tlb_shootdown *. 3.0)
    (Vmem.Cost.get cost Tlb_shootdown)

(* ------------------------------------------------------------------ *)
(* Addr_space *)

let make_as ?(frames = 4096) ?policy () =
  let fr = Vmem.Frame.create ?policy ~frames () in
  let cost = Vmem.Cost.create () in
  let tlb = Vmem.Tlb.create cost in
  (fr, Vmem.Addr_space.create ~frames:fr ~cost ~tlb ())

let page = Vmem.Addr.page_size

(* One-byte accesses through the range accessors. *)
let read_byte a addr =
  Result.map
    (fun s -> Char.code s.[0])
    (Vmem.Addr_space.read_bytes a ~addr ~len:1)

let write_byte a addr v =
  Vmem.Addr_space.write_bytes a ~addr (String.make 1 (Char.chr v))

let test_as_mmap_gap () =
  let _, a = make_as () in
  let x = ok (Vmem.Addr_space.mmap ~len:(2 * page) ~perm:Vmem.Perm.rw ~kind:Vmem.Vma.Anon a) in
  check_int "at base" (Vmem.Addr_space.mmap_base a) x;
  let y = ok (Vmem.Addr_space.mmap ~len:page ~perm:Vmem.Perm.rw ~kind:Vmem.Vma.Anon a) in
  check_int "next gap" (x + (2 * page)) y;
  check_int "vmas" 2 (Vmem.Addr_space.vma_count a)

let test_as_mmap_hint () =
  let _, a = make_as () in
  let hint = 0x1000_0000 in
  let x = ok (Vmem.Addr_space.mmap ~addr:hint ~len:page ~perm:Vmem.Perm.rw ~kind:Vmem.Vma.Anon a) in
  check_int "placed at hint" hint x;
  (match Vmem.Addr_space.mmap ~addr:hint ~len:page ~perm:Vmem.Perm.rw ~kind:Vmem.Vma.Anon a with
  | Error `Overlap -> ()
  | _ -> Alcotest.fail "expected overlap");
  match Vmem.Addr_space.mmap ~addr:(hint + 1) ~len:page ~perm:Vmem.Perm.rw ~kind:Vmem.Vma.Anon a with
  | Error `Invalid -> ()
  | _ -> Alcotest.fail "expected invalid (unaligned)"

let test_as_demand_zero () =
  let fr, a = make_as () in
  let x = ok (Vmem.Addr_space.mmap ~len:page ~perm:Vmem.Perm.rw ~kind:Vmem.Vma.Anon a) in
  check_int "nothing resident" 0 (Vmem.Addr_space.resident_pages a);
  check_int "reads zero" 0 (ok (read_byte a x));
  check_int "one page resident" 1 (Vmem.Addr_space.resident_pages a);
  ok (write_byte a (x + 5) 99);
  check_int "reads back" 99 (ok (read_byte a (x + 5)));
  check_int "still one page" 1 (Vmem.Addr_space.resident_pages a);
  check_int "one frame used" 1 (Vmem.Frame.used fr)

let test_as_segfault_and_perms () =
  let _, a = make_as () in
  (match read_byte a 0x500 with
  | Error `Segfault -> ()
  | _ -> Alcotest.fail "expected segfault");
  let x = ok (Vmem.Addr_space.mmap ~len:page ~perm:Vmem.Perm.r ~kind:Vmem.Vma.Anon a) in
  (match write_byte a x 1 with
  | Error `Perm_denied -> ()
  | _ -> Alcotest.fail "expected perm denied");
  check_int "read ok" 0 (ok (read_byte a x))

let test_as_munmap_partial () =
  let fr, a = make_as () in
  let x = ok (Vmem.Addr_space.mmap ~len:(4 * page) ~perm:Vmem.Perm.rw ~kind:Vmem.Vma.Anon a) in
  check_int "touched" 4 (ok (Vmem.Addr_space.touch_range a ~addr:x ~len:(4 * page)));
  check_int "committed" 4 (Vmem.Addr_space.committed_pages a);
  ok (Vmem.Addr_space.munmap a ~addr:(x + page) ~len:page);
  check_int "resident drops" 3 (Vmem.Addr_space.resident_pages a);
  check_int "commit drops" 3 (Vmem.Addr_space.committed_pages a);
  check_int "split vmas" 2 (Vmem.Addr_space.vma_count a);
  check_int "frames freed" 3 (Vmem.Frame.used fr);
  (* hole faults *)
  match read_byte a (x + page) with
  | Error `Segfault -> ()
  | _ -> Alcotest.fail "expected segfault in hole"

let test_as_munmap_hole_ok () =
  let _, a = make_as () in
  (* munmap over nothing is fine, POSIX-style *)
  ok (Vmem.Addr_space.munmap a ~addr:0x4000_0000 ~len:(16 * page))

let test_as_protect () =
  let _, a = make_as () in
  let x = ok (Vmem.Addr_space.mmap ~len:(2 * page) ~perm:Vmem.Perm.rw ~kind:Vmem.Vma.Anon a) in
  ok (write_byte a x 1);
  ok (Vmem.Addr_space.protect a ~addr:x ~len:page ~perm:Vmem.Perm.r);
  (match write_byte a x 2 with
  | Error `Perm_denied -> ()
  | _ -> Alcotest.fail "write after mprotect");
  (* second page unaffected *)
  ok (write_byte a (x + page) 3);
  (* protect over a hole fails *)
  match Vmem.Addr_space.protect a ~addr:0x5000_0000 ~len:page ~perm:Vmem.Perm.r with
  | Error `No_region -> ()
  | _ -> Alcotest.fail "expected no region"

let test_as_protect_restore () =
  let _, a = make_as () in
  let x = ok (Vmem.Addr_space.mmap ~len:page ~perm:Vmem.Perm.rw ~kind:Vmem.Vma.Anon a) in
  ok (write_byte a x 7);
  ok (Vmem.Addr_space.protect a ~addr:x ~len:page ~perm:Vmem.Perm.r);
  ok (Vmem.Addr_space.protect a ~addr:x ~len:page ~perm:Vmem.Perm.rw);
  ok (write_byte a x 8);
  check_int "value" 8 (ok (read_byte a x))

let test_as_brk () =
  let _, a = make_as () in
  let base = 0x2000_0000 in
  Vmem.Addr_space.set_heap_base a base;
  check_int "initial brk" base (Vmem.Addr_space.brk a);
  ok (Vmem.Addr_space.set_brk a (base + (4 * page)));
  check_int "grown" (base + (4 * page)) (Vmem.Addr_space.brk a);
  ok (write_byte a (base + (2 * page)) 9);
  ok (Vmem.Addr_space.set_brk a (base + page));
  check_int "shrunk" (base + page) (Vmem.Addr_space.brk a);
  (match read_byte a (base + (2 * page)) with
  | Error `Segfault -> ()
  | _ -> Alcotest.fail "freed heap page still mapped");
  match Vmem.Addr_space.set_brk a (base - page) with
  | Error `Invalid -> ()
  | _ -> Alcotest.fail "brk below base"

let fork_pair () =
  let fr, a = make_as () in
  let x = ok (Vmem.Addr_space.mmap ~len:(2 * page) ~perm:Vmem.Perm.rw ~kind:Vmem.Vma.Anon a) in
  ok (write_byte a x 11);
  let child = ok (Vmem.Addr_space.clone_cow a) in
  (fr, a, child, x)

let test_as_cow_semantics () =
  let fr, parent, child, x = fork_pair () in
  (* child sees parent's data *)
  check_int "inherited" 11 (ok (read_byte child x));
  (* same frame, refcount 2 *)
  check_int "one frame" 1 (Vmem.Frame.used fr);
  (* child write breaks COW *)
  ok (write_byte child x 22);
  check_int "child sees own" 22 (ok (read_byte child x));
  check_int "parent unchanged" 11 (ok (read_byte parent x));
  check_int "two frames now" 2 (Vmem.Frame.used fr);
  (* parent write: sole owner fast path, no new frame *)
  ok (write_byte parent x 33);
  check_int "still two frames" 2 (Vmem.Frame.used fr);
  check_int "parent value" 33 (ok (read_byte parent x))

let test_as_cow_layout_inherited () =
  let _, parent, child, _ = fork_pair () in
  check_int "mmap_base inherited" (Vmem.Addr_space.mmap_base parent)
    (Vmem.Addr_space.mmap_base child);
  check_int "same vma count" (Vmem.Addr_space.vma_count parent)
    (Vmem.Addr_space.vma_count child)

let test_as_fork_cost_scales () =
  let fr = Vmem.Frame.create ~frames:(1 lsl 20) () in
  let cost = Vmem.Cost.create () in
  let tlb = Vmem.Tlb.create cost in
  let fork_cycles npages =
    let a = Vmem.Addr_space.create ~frames:fr ~cost ~tlb () in
    let x = ok (Vmem.Addr_space.mmap ~len:(npages * page) ~perm:Vmem.Perm.rw ~kind:Vmem.Vma.Anon a) in
    ignore (ok (Vmem.Addr_space.touch_range a ~addr:x ~len:(npages * page)));
    let child, cycles = Vmem.Cost.delta cost (fun () -> ok (Vmem.Addr_space.clone_cow a)) in
    Vmem.Addr_space.destroy child;
    Vmem.Addr_space.destroy a;
    cycles
  in
  let small = fork_cycles 16 in
  let big = fork_cycles 16384 in
  check_bool "fork cost grows with resident set" true (big > small *. 10.0)

(* A fork child that writes three pages and exits puts no
   page-table-sized block (513 words) on the major heap once its
   machine's stacks are warm: every inner and leaf array its table
   copies comes from the stacks, and goes back when it exits. *)
let test_pt_fork_cycle_heap () =
  let npages = 16_384 in
  let fr = Vmem.Frame.create ~frames:(2 * npages + 64) () in
  let cost = Vmem.Cost.create () in
  let tlb = Vmem.Tlb.create cost in
  let a = Vmem.Addr_space.create ~frames:fr ~cost ~tlb () in
  let x =
    ok
      (Vmem.Addr_space.mmap ~len:(npages * page) ~perm:Vmem.Perm.rw
         ~kind:Vmem.Vma.Anon a)
  in
  ignore (ok (Vmem.Addr_space.touch_range a ~addr:x ~len:(npages * page)));
  let cycles n =
    for _ = 1 to n do
      let child = ok (Vmem.Addr_space.clone_cow a) in
      ignore
        (ok
           (Vmem.Addr_space.touch_range child ~addr:(x + (5000 * page))
              ~len:(3 * page)));
      Vmem.Addr_space.destroy child
    done
  in
  let direct () =
    let s = Gc.quick_stat () in
    s.major_words -. s.promoted_words
  in
  cycles 100;
  let before = direct () in
  cycles 100;
  let words = direct () -. before in
  if words >= 513. then
    Alcotest.failf "100 fork cycles put %.0f words straight on the major heap"
      words

let test_as_destroy_releases () =
  let fr, parent, child, x = fork_pair () in
  ok (write_byte child x 1);
  Vmem.Addr_space.destroy child;
  check_int "child frames gone" 1 (Vmem.Frame.used fr);
  check_int "parent still reads" 11 (ok (read_byte parent x));
  Vmem.Addr_space.destroy parent;
  check_int "all freed" 0 (Vmem.Frame.used fr);
  check_int "commit zero" 0 (Vmem.Frame.committed fr);
  Vmem.Addr_space.destroy parent (* idempotent *)

let test_as_seal_clone () =
  let fr, a = make_as () in
  let x =
    ok (Vmem.Addr_space.mmap ~len:(2 * page) ~perm:Vmem.Perm.rw ~kind:Vmem.Vma.Anon a)
  in
  ok (write_byte a x 11);
  check_bool "sole owner before seal" true (Vmem.Addr_space.sole_owner a);
  let tpl = Vmem.Addr_space.seal a in
  check_int "resident frame pinned" 1 (Vmem.Frame.pinned fr);
  (* the template now holds every frame: the source is no longer the
     sole owner (so it cannot be sealed twice) *)
  check_bool "not sole owner after seal" false (Vmem.Addr_space.sole_owner a);
  (* the sealed image is immutable: a source write COWs away from it *)
  ok (write_byte a x 22);
  check_int "source copied away" 2 (Vmem.Frame.used fr);
  let child, subtrees = ok (Vmem.Addr_space.clone_from_sealed tpl ~commit_pages:1) in
  check_bool "shares at least one subtree" true (subtrees >= 1);
  check_int "child sees the frozen byte" 11 (ok (read_byte child x));
  ok (write_byte child x 33);
  check_int "child copied, template intact" 3 (Vmem.Frame.used fr);
  check_int "template byte unchanged" 22 (ok (read_byte a x));
  Vmem.Addr_space.destroy child;
  Vmem.Addr_space.destroy a;
  check_int "only the pinned page left" 1 (Vmem.Frame.used fr);
  Vmem.Addr_space.destroy_sealed tpl;
  check_int "unpinned and freed" 0 (Vmem.Frame.used fr);
  check_int "no pins left" 0 (Vmem.Frame.pinned fr);
  check_int "no commit leak" 0 (Vmem.Frame.committed fr)

let test_as_seal_clone_commit_limit () =
  let fr, a = make_as ~frames:8 () in
  let x = ok (Vmem.Addr_space.mmap ~len:page ~perm:Vmem.Perm.rw ~kind:Vmem.Vma.Anon a) in
  ok (write_byte a x 5);
  let tpl = Vmem.Addr_space.seal a in
  let used = Vmem.Frame.used fr and committed = Vmem.Frame.committed fr in
  (* the commit charge is the only fallible step of a zygote clone: a
     refusal leaves the template and the frame pool untouched *)
  (match Vmem.Addr_space.clone_from_sealed tpl ~commit_pages:100 with
  | Error `Commit_limit -> ()
  | Ok _ -> Alcotest.fail "expected commit refusal");
  check_int "used unmoved" used (Vmem.Frame.used fr);
  check_int "commit unmoved" committed (Vmem.Frame.committed fr);
  check_int "still pinned" 1 (Vmem.Frame.pinned fr);
  (* and the template is still cloneable *)
  let child, _ = ok (Vmem.Addr_space.clone_from_sealed tpl ~commit_pages:1) in
  check_int "clone reads frozen byte" 5 (ok (read_byte child x));
  Vmem.Addr_space.destroy child;
  Vmem.Addr_space.destroy a;
  Vmem.Addr_space.destroy_sealed tpl;
  check_int "all freed" 0 (Vmem.Frame.used fr);
  check_int "commit zero" 0 (Vmem.Frame.committed fr)

let test_as_fork_commit_limit () =
  (* strict accounting: a parent using >half of memory cannot fork *)
  let fr, a = make_as ~frames:100 () in
  let x = ok (Vmem.Addr_space.mmap ~len:(60 * page) ~perm:Vmem.Perm.rw ~kind:Vmem.Vma.Anon a) in
  ignore x;
  (match Vmem.Addr_space.clone_cow a with
  | Error `Commit_limit -> ()
  | Error `Out_of_memory -> Alcotest.fail "unexpected OOM"
  | Ok _ -> Alcotest.fail "fork should exceed commit");
  (* overcommit policy lets it through *)
  Vmem.Frame.set_policy fr Vmem.Frame.Overcommit;
  let child = ok (Vmem.Addr_space.clone_cow a) in
  Vmem.Addr_space.destroy child

let test_as_clone_eager () =
  let fr, a = make_as () in
  let x = ok (Vmem.Addr_space.mmap ~len:(2 * page) ~perm:Vmem.Perm.rw ~kind:Vmem.Vma.Anon a) in
  ok (write_byte a x 5);
  let child = ok (Vmem.Addr_space.clone_eager a) in
  (* frames copied immediately: 2 used (1 parent + 1 child) *)
  check_int "frames doubled" 2 (Vmem.Frame.used fr);
  check_int "child copy" 5 (ok (read_byte child x));
  (* no COW: parent write doesn't affect child and allocates nothing *)
  ok (write_byte a x 6);
  check_int "still 2 frames" 2 (Vmem.Frame.used fr);
  check_int "child isolated" 5 (ok (read_byte child x))

let test_as_shared_mapping_fork () =
  let _, a = make_as () in
  let x =
    ok (Vmem.Addr_space.mmap ~shared:true ~len:page ~perm:Vmem.Perm.rw ~kind:Vmem.Vma.Anon a)
  in
  ok (write_byte a x 1);
  let child = ok (Vmem.Addr_space.clone_cow a) in
  (* shared mapping: child writes are visible to the parent *)
  ok (write_byte child x 77);
  check_int "parent sees shared write" 77 (ok (read_byte a x))

let test_as_map_image_page () =
  let _, a = make_as () in
  ok
    (Vmem.Addr_space.map_image_page a ~addr:0x40_0000 ~perm:Vmem.Perm.rx
       ~data:"\x7fELF" ~kind:(Vmem.Vma.Text { path = "/bin/x" }) ());
  check_int "populated" 1 (Vmem.Addr_space.resident_pages a);
  check_int "byte 1" 0x45 (ok (read_byte a 0x40_0001))

let test_as_oom_fault () =
  let _, a = make_as ~frames:2 ~policy:Vmem.Frame.Overcommit () in
  let x = ok (Vmem.Addr_space.mmap ~len:(8 * page) ~perm:Vmem.Perm.rw ~kind:Vmem.Vma.Anon a) in
  ok (Vmem.Addr_space.touch a x);
  ok (Vmem.Addr_space.touch a (x + page));
  match Vmem.Addr_space.touch a (x + (2 * page)) with
  | Error `Out_of_memory -> ()
  | _ -> Alcotest.fail "expected OOM"

let prop_as_fork_refcounts =
  QCheck.Test.make ~count:50
    ~name:"addr space: destroy everything frees every frame"
    QCheck.(pair (1 -- 8) (list_of_size Gen.(0 -- 20) (int_bound 7)))
    (fun (npages, writes) ->
      let fr = Vmem.Frame.create ~frames:1024 () in
      let cost = Vmem.Cost.create () in
      let tlb = Vmem.Tlb.create cost in
      let a = Vmem.Addr_space.create ~frames:fr ~cost ~tlb () in
      let x =
        match Vmem.Addr_space.mmap ~len:(npages * page) ~perm:Vmem.Perm.rw ~kind:Vmem.Vma.Anon a with
        | Ok x -> x
        | Error _ -> QCheck.assume_fail ()
      in
      List.iter
        (fun p ->
          if p < npages then
            match write_byte a (x + (p * page)) 1 with
            | Ok () | Error _ -> ())
        writes;
      let child =
        match Vmem.Addr_space.clone_cow a with
        | Ok c -> c
        | Error _ -> QCheck.assume_fail ()
      in
      List.iter
        (fun p ->
          if p < npages then
            match write_byte child (x + (p * page)) 2 with
            | Ok () | Error _ -> ())
        writes;
      Vmem.Addr_space.destroy child;
      Vmem.Addr_space.destroy a;
      Vmem.Frame.used fr = 0 && Vmem.Frame.committed fr = 0)

(* The ownership rule over every live space of one machine: each
   unpinned frame's refcount is the number of distinct leaves mapping
   it, and every allocated frame is mapped. *)
let audit_ok step spaces =
  match Vmem.Addr_space.audit_frames spaces with
  | Ok () -> ()
  | Error msg -> Alcotest.failf "%s: %s" step msg

(* ------------------------------------------------------------------ *)
(* COW model check: a family of forked address spaces must behave like
   independent byte maps, no matter how writes and forks interleave.
   Writes go through the per-page fault path; write-touches go through
   the batched one, which breaks a leaf's run of COW pages at once, and
   change no byte. *)

type world_op =
  | W_write of int * int * int  (* space index, page*16+off within 8 pages, byte *)
  | W_touch of int * int * int  (* space index, first page, pages *)
  | W_fork of int
  | W_destroy of int

let gen_world_op =
  QCheck.Gen.(
    frequency
      [
        (6, map3 (fun s loc v -> W_write (s, loc, v)) (int_bound 7) (int_bound 127) (int_bound 255));
        (3, map3 (fun s p n -> W_touch (s, p, n)) (int_bound 7) (int_bound 7) (1 -- 8));
        (2, map (fun s -> W_fork s) (int_bound 7));
        (1, map (fun s -> W_destroy s) (int_bound 7));
      ])

(* Run [ops] on a family forked from one space whose 8-page arena starts
   at [base], checking the ownership rule after every step. *)
let cow_model_run ops base =
  let npages = 8 in
  let fr = Vmem.Frame.create ~policy:Vmem.Frame.Overcommit ~frames:4096 () in
  let cost = Vmem.Cost.create () in
  let tlb = Vmem.Tlb.create cost in
  let root = Vmem.Addr_space.create ~frames:fr ~cost ~tlb () in
  (match
     Vmem.Addr_space.mmap ~addr:base ~len:(npages * page) ~perm:Vmem.Perm.rw
       ~kind:Vmem.Vma.Anon root
   with
  | Ok _ -> ()
  | Error _ -> QCheck.assume_fail ());
  (* each live space paired with its reference byte map *)
  let live = ref [ (root, Hashtbl.create 64) ] in
  let addr_of loc = base + ((loc / 16) * page) + (loc mod 16) in
  let pick i = List.nth !live (i mod List.length !live) in
  let agree () =
    List.for_all
      (fun (aspace, model) ->
        Hashtbl.fold
          (fun addr expected acc ->
            acc
            &&
            match read_byte aspace addr with
            | Ok got -> got = expected
            | Error _ -> false)
          model true)
      !live
  in
  let step op =
    match op with
    | W_write (s, loc, v) -> (
      let aspace, model = pick s in
      let addr = addr_of loc in
      match write_byte aspace addr v with
      | Ok () ->
        Hashtbl.replace model addr v;
        true
      | Error _ -> false)
    | W_touch (s, first, pages) -> (
      let aspace, _ = pick s in
      match
        Vmem.Addr_space.touch_range aspace ~addr:(base + (first * page))
          ~len:(min pages (npages - first) * page)
      with
      | Ok _ -> true
      | Error _ -> false)
    | W_fork s -> (
      let aspace, model = pick s in
      match Vmem.Addr_space.clone_cow aspace with
      | Ok child ->
        live := !live @ [ (child, Hashtbl.copy model) ];
        true
      | Error _ -> false)
    | W_destroy s ->
      if List.length !live > 1 then begin
        let victim, _ = pick s in
        Vmem.Addr_space.destroy victim;
        live := List.filter (fun (a, _) -> a != victim) !live;
        true
      end
      else true
  in
  let ok_steps =
    List.for_all
      (fun op ->
        let ok = step op in
        audit_ok (Printf.sprintf "arena %x" base) (List.map fst !live);
        ok)
      ops
  in
  let consistent = ok_steps && agree () in
  List.iter (fun (a, _) -> Vmem.Addr_space.destroy a) !live;
  consistent && Vmem.Frame.used fr = 0 && Vmem.Frame.committed fr = 0

(* Each op list runs on two arenas: one inside a single leaf, and one
   straddling a leaf boundary, where a fork can leave a sibling leaf
   shared under an inner node that a write has privatised. *)
let prop_cow_model =
  QCheck.Test.make ~count:60 ~long_factor:20
    ~name:"addr space: fork family matches byte-map model"
    (QCheck.make QCheck.Gen.(list_size (0 -- 40) gen_world_op))
    (fun ops ->
      cow_model_run ops 0x1000_0000
      && cow_model_run ops
           (0x1000_0000 + ((Vmem.Addr.entries_per_table - 4) * page)))

(* ------------------------------------------------------------------ *)
(* Batched-vs-reference oracle: the O(range) fast paths (leaf batch ops,
   lazily shared page-table subtrees on fork, the batched demand-paged
   touch) must be indistinguishable from the per-page reference walks
   ([~batched:false]) — identical op results, PTE contents, cost
   breakdown with event counts, every Blame bucket, pager upcalls and
   frame accounting — under arbitrary interleavings of map / lazy map /
   touch / mprotect / clone / unmap and lazy-zygote spawns, in the
   space and in both of its children, including OOM, commit-limit and
   injected pager and frame-allocation failures. *)

type oracle_op =
  | O_mmap of int * int * int * bool  (* page offset, pages, perm, shared *)
  | O_map_lazy of int * int * int * int * int
      (* page offset, pages, perm, cookie0, stride *)
  | O_touch of int * int
  | O_touch_vma of int * int * int  (* region index, page in it, pages *)
  | O_protect of int * int * int
  | O_munmap of int * int
  | O_clone
  | O_zygote  (* seal the space, then spawn a lazy-zygote child of it *)
  | O_in_zygote of oracle_op
      (* a map, touch, mprotect or unmap on the lazy-zygote child:
         backing hits, and holes once unmapped pages are mapped again *)
  | O_in_child of oracle_op
      (* the same on the clone_cow child: a child write after a parent
         write breaks a COW run that mixes reuses (the frames the parent
         copied away from) with copies *)

(* What the recording pager saw, one entry per upcall. *)
type upcall =
  | U_image of (int * int) list  (* (cookie, frame) per page *)
  | U_backing of (int * int) list  (* (template frame, frame) per page *)

let gen_oracle_scenario =
  QCheck.Gen.(
    let arena = 96 in
    let space_op =
      frequency
        [
          ( 4,
            map3
              (fun off len (p, sh) -> O_mmap (off, len, p, sh))
              (int_bound (arena - 1)) (1 -- 16)
              (pair (int_bound 2) bool) );
          ( 3,
            map3
              (fun off len (p, c0, st) -> O_map_lazy (off, len, p, c0, st))
              (int_bound (arena - 1)) (1 -- 16)
              (triple (int_bound 2) (int_bound 1000) (int_bound 4)) );
          (3, map2 (fun off len -> O_touch (off, len)) (int_bound (arena - 1)) (1 -- 24));
          ( 8,
            map3
              (fun k off len -> O_touch_vma (k, off, len))
              (int_bound 7) (int_bound 15) (1 -- 16) );
          ( 3,
            map3
              (fun off len p -> O_protect (off, len, p))
              (int_bound (arena - 1)) (1 -- 16) (int_bound 2) );
          (2, map2 (fun off len -> O_munmap (off, len)) (int_bound (arena - 1)) (1 -- 24));
        ]
    in
    let op =
      frequency
        [
          (22, space_op);
          (2, return O_clone);
          (2, return O_zygote);
          (8, map (fun op -> O_in_zygote op) space_op);
          (8, map (fun op -> O_in_child op) space_op);
        ]
    in
    pair
      (triple (list_size (1 -- 45) op) bool bool)
      (triple (int_bound 8) bool (int_bound 1_000_000)))

type oracle_space = {
  fr : Vmem.Frame.t;
  cost : Vmem.Cost.t;
  blame : Vmem.Blame.t;
  a : Vmem.Addr_space.t;
  child : Vmem.Addr_space.t option ref;  (* the latest clone_cow child *)
  lazy_child : Vmem.Addr_space.t option ref;  (* the latest zygote child *)
  templates : Vmem.Addr_space.t list ref;
  upcalls : upcall list ref;
}

(* One side of a batched-vs-per-page comparison: a machine of [frames]
   frames, a space whose Blame ledger has a fork event as its sharing
   origin, and a recording pager. [deny] is the pager's fault-injection
   hook and [deny_alloc] the frame allocator's, if any. *)
let oracle_make ~batched ~frames ~policy ~readahead ~deny ~deny_alloc =
  let fr = Vmem.Frame.create ~policy ~frames () in
  let cost = Vmem.Cost.create () in
  let blame = Vmem.Blame.create () in
  Vmem.Cost.set_observer cost (Some (Vmem.Blame.on_cost blame));
  let tlb = Vmem.Tlb.create cost in
  let a = Vmem.Addr_space.create ~batched ~blame ~frames:fr ~cost ~tlb () in
  Vmem.Addr_space.set_blame_origin a
    (Vmem.Blame.new_event blame ~style:"fork" ~parent:1);
  Vmem.Frame.set_deny_alloc fr deny_alloc;
  let upcalls = ref [] in
  let pairs xs ys n = List.init n (fun k -> (xs.(k), ys.(k))) in
  (* fetch costs are integer-valued so batching cannot round
     differently *)
  Vmem.Addr_space.set_pager a
    (Some
       {
         Vmem.Addr_space.fetch =
           (fun cost ~cookies ~frames ~n ->
             upcalls := U_image (pairs cookies frames n) :: !upcalls;
             Vmem.Cost.charge ~n cost Pager_fetch_image
               (100.0 *. float_of_int n));
         fetch_backing =
           (fun cost ~src ~dst ~n ->
             upcalls := U_backing (pairs src dst n) :: !upcalls;
             Vmem.Cost.charge ~n cost Pager_fetch_template
               (60.0 *. float_of_int n);
             for k = 0 to n - 1 do
               Vmem.Frame.copy_contents fr ~src:src.(k) ~dst:dst.(k)
             done);
         deny;
         readahead;
       });
  { fr; cost; blame; a; child = ref None; lazy_child = ref None;
    templates = ref []; upcalls }

(* What the two sides must agree on: cost breakdown with event counts,
   every Blame bucket, frame accounting, the tables of the space and of
   its latest children (PTE bits included), and the pager's upcalls. *)
let oracle_state sp =
  let ptes a =
    Vmem.Addr_space.fold_resident a ~init:[] ~f:(fun acc ~vpn ~pte ->
        (vpn, pte) :: acc)
  in
  let lazies a =
    Vmem.Addr_space.fold_lazy a ~init:[] ~f:(fun acc ~vpn ~pte ->
        (vpn, pte) :: acc)
  in
  let space a =
    ( ( Vmem.Addr_space.resident_pages a,
        Vmem.Addr_space.pt_nodes a,
        Vmem.Addr_space.vma_count a,
        Vmem.Addr_space.lazy_pages a ),
      (ptes a, lazies a) )
  in
  ( Vmem.Cost.total sp.cost,
    Vmem.Cost.entries sp.cost,
    List.map
      (fun (ev : Vmem.Blame.event) ->
        (ev.id, Vmem.Cost.entries ev.sync, Vmem.Cost.entries ev.deferred))
      (Vmem.Blame.events sp.blame),
    (Vmem.Frame.used sp.fr, Vmem.Frame.committed sp.fr),
    space sp.a,
    Option.map space !(sp.child),
    Option.map space !(sp.lazy_child),
    !(sp.upcalls) )

let prop_batched_oracle =
  let perm_of = [| Vmem.Perm.r; Vmem.Perm.rw; Vmem.Perm.rwx |] in
  let show_fault = function
    | `Segfault -> "segv"
    | `Perm_denied -> "perm"
    | `Out_of_memory -> "oom"
  in
  QCheck.Test.make ~count:200 ~long_factor:20
    ~name:"addr space: batched paths match the per-page oracle"
    (QCheck.make gen_oracle_scenario)
    (fun ((ops, small_phys, overcommit), (readahead, inject, seed)) ->
      let make batched =
        (* with injection, both deny hooks draw from one stream per
           space, as Ksim.Fault's triggers do, at different rates:
           consulting them in another order, or a different number of
           times, moves later failures. Without it the pager never
           refuses and the frame allocator has no hook, as in a kernel
           without a fault schedule, so demand fills take
           [Frame.alloc_upto]'s unhooked path *)
        let rng = Prng.Splitmix.create ~seed in
        let draw p () = Prng.Splitmix.float rng < p in
        oracle_make ~batched
          ~frames:(if small_phys then 48 else 4096)
          ~policy:(if overcommit then Vmem.Frame.Overcommit else Vmem.Frame.Strict)
          ~readahead
          ~deny:(if inject then draw 0.1 else fun () -> false)
          ~deny_alloc:(if inject then Some (draw 0.02) else None)
      in
      let fast = make true in
      let slow = make false in
      let origin sp style =
        Vmem.Blame.new_event sp.blame ~style ~parent:1
      in
      let destroy slot =
        Option.iter Vmem.Addr_space.destroy !slot;
        slot := None
      in
      (* the arena straddles a leaf boundary at its page 48, so walks
         and readahead cross leaves *)
      let arena a =
        Vmem.Addr_space.mmap_base a + ((Vmem.Addr.entries_per_table - 48) * page)
      in
      let touch a ~addr ~len =
        match Vmem.Addr_space.touch_range a ~addr ~len:(len * page) with
        | Ok n -> Printf.sprintf "touch:%d" n
        | Error e -> "touch:" ^ show_fault e
      in
      let apply_space a op =
        let base = arena a in
        match op with
        | O_mmap (off, len, p, shared) -> (
          match
            Vmem.Addr_space.mmap ~addr:(base + (off * page)) ~shared
              ~len:(len * page) ~perm:perm_of.(p) ~kind:Vmem.Vma.Anon a
          with
          | Ok x -> Printf.sprintf "mmap:%x" x
          | Error `No_space -> "mmap:nospace"
          | Error `Overlap -> "mmap:overlap"
          | Error `Commit_limit -> "mmap:commit"
          | Error `Invalid -> "mmap:invalid")
        | O_map_lazy (off, len, p, cookie0, stride) -> (
          match
            Vmem.Addr_space.map_lazy ~addr:(base + (off * page))
              ~len:(len * page) ~perm:perm_of.(p) ~kind:Vmem.Vma.Anon
              ~cookie0 ~stride a
          with
          | Ok x -> Printf.sprintf "lazy:%x" x
          | Error `No_space -> "lazy:nospace"
          | Error `Overlap -> "lazy:overlap"
          | Error `Commit_limit -> "lazy:commit"
          | Error `Invalid -> "lazy:invalid")
        | O_touch (off, len) -> touch a ~addr:(base + (off * page)) ~len
        | O_touch_vma (k, off, len) -> (
          match Vmem.Addr_space.regions a with
          | [] -> "touch:noregion"
          | regions ->
            let s, e, _ = List.nth regions (k mod List.length regions) in
            touch a ~addr:(s + (off mod ((e - s) / page) * page)) ~len)
        | O_protect (off, len, p) -> (
          match
            Vmem.Addr_space.protect a ~addr:(base + (off * page))
              ~len:(len * page) ~perm:perm_of.(p)
          with
          | Ok () -> "protect:ok"
          | Error `Invalid -> "protect:invalid"
          | Error `No_region -> "protect:noregion")
        | O_munmap (off, len) -> (
          match
            Vmem.Addr_space.munmap a ~addr:(base + (off * page))
              ~len:(len * page)
          with
          | Ok () -> "munmap:ok"
          | Error `Invalid -> "munmap:invalid")
        | O_clone | O_zygote | O_in_zygote _ | O_in_child _ ->
          invalid_arg "apply_space"
      in
      let apply sp op =
        let a = sp.a in
        match op with
        | O_clone -> (
          destroy sp.child;
          match Vmem.Addr_space.clone_cow a with
          | Ok c ->
            let id = origin sp "fork" in
            Vmem.Addr_space.set_blame_origin a id;
            Vmem.Addr_space.set_blame_origin c id;
            sp.child := Some c;
            "clone:ok"
          | Error `Commit_limit -> "clone:commit"
          | Error `Out_of_memory -> "clone:oom")
        | O_zygote -> (
          (* freeze an eager copy (which takes the resident pages but not
             the lazy ones) and spawn a lazy-zygote child of it; a seal
             pins every resident frame, so the copy must own them alone *)
          match Vmem.Addr_space.clone_eager a with
          | Error `Commit_limit -> "zygote:commit"
          | Error `Out_of_memory -> "zygote:oom"
          | Ok src ->
            let r =
              if not (Vmem.Addr_space.sole_owner src) then "zygote:shared"
              else begin
                let tpl = Vmem.Addr_space.seal src in
                sp.templates := tpl :: !(sp.templates);
                destroy sp.lazy_child;
                match
                  Vmem.Addr_space.clone_from_sealed tpl
                    ~commit_pages:(Vmem.Addr_space.committed_pages src)
                with
                | Ok (c, _) ->
                  Vmem.Addr_space.set_blame_origin c (origin sp "zygote");
                  sp.lazy_child := Some c;
                  "zygote:ok"
                | Error `Commit_limit -> "zygote:commit"
              end
            in
            Vmem.Addr_space.destroy src;
            r)
        | O_in_zygote op -> (
          match !(sp.lazy_child) with
          | None -> "zygote:none"
          | Some c -> apply_space c op)
        | O_in_child op -> (
          match !(sp.child) with
          | None -> "child:none"
          | Some c -> apply_space c op)
        | op -> apply_space a op
      in
      let live sp =
        (sp.a :: Option.to_list !(sp.child))
        @ Option.to_list !(sp.lazy_child)
        @ !(sp.templates)
      in
      List.iteri
        (fun i op ->
          let rf = apply fast op in
          let rs = apply slow op in
          if rf <> rs then
            Alcotest.failf "op %d: result mismatch (batched %s, oracle %s)" i
              rf rs;
          if oracle_state fast <> oracle_state slow then
            Alcotest.failf "op %d (%s): state diverged" i rf;
          audit_ok (Printf.sprintf "op %d (%s), batched" i rf) (live fast);
          audit_ok (Printf.sprintf "op %d (%s), oracle" i rs) (live slow))
        ops;
      let finish sp =
        destroy sp.child;
        destroy sp.lazy_child;
        Vmem.Addr_space.destroy sp.a;
        List.iter Vmem.Addr_space.destroy_sealed !(sp.templates);
        (Vmem.Frame.used sp.fr, Vmem.Frame.committed sp.fr)
      in
      let uf = finish fast and us = finish slow in
      uf = us && uf = (0, 0))

(* ------------------------------------------------------------------ *)
(* Directed request windows: a major fault serves the faulting page and
   its readahead as one window of sub-runs. Each scenario runs on a
   batched space and on its per-page twin, which must agree after every
   step ([oracle_state]: PTEs, upcalls, cost entries, Blame buckets). *)

(* Run [steps] on both twins, each side's pager refusing when the hook
   [deny ()] makes for it says so. Returns the batched side and its
   step results. *)
let twin ?(deny = fun () () -> false) steps =
  let make batched =
    oracle_make ~batched ~frames:4096 ~policy:Vmem.Frame.Overcommit
      ~readahead:8 ~deny:(deny ()) ~deny_alloc:None
  in
  let fast = make true and slow = make false in
  let results =
    List.mapi
      (fun i step ->
        let rf = step fast and rs = step slow in
        if rf <> rs then Alcotest.failf "step %d: batched %s, per-page %s" i rf rs;
        if oracle_state fast <> oracle_state slow then
          Alcotest.failf "step %d (%s): state diverged" i rf;
        rf)
      steps
  in
  (fast, results)

let show_result = function
  | Ok _ -> "ok"
  | Error _ -> "error"

let touch_pages a ~addr ~pages =
  match Vmem.Addr_space.touch_range a ~addr ~len:(pages * page) with
  | Ok n -> Printf.sprintf "touch:%d" n
  | Error _ -> "touch:error"

let map_lazy_pages a ~addr ~pages =
  show_result
    (Vmem.Addr_space.map_lazy ~addr ~len:(pages * page) ~perm:Vmem.Perm.rw
       ~kind:Vmem.Vma.Anon ~cookie0:0 ~stride:4 a)

(* Resident pages, and how many of them readahead left untouched. *)
let residency a =
  let prefetched =
    Vmem.Addr_space.fold_resident a ~init:0 ~f:(fun n ~vpn:_ ~pte ->
        if Vmem.Pte.prefetched pte then n + 1 else n)
  in
  Printf.sprintf "resident:%d prefetched:%d" (Vmem.Addr_space.resident_pages a)
    prefetched

(* The upcalls, oldest first: each image upcall's size and first
   cookie, each backing upcall's size. *)
let upcall_shapes sp =
  List.rev_map
    (function
      | U_image l -> Printf.sprintf "image:%d@%d" (List.length l) (fst (List.hd l))
      | U_backing l -> Printf.sprintf "backing:%d" (List.length l))
    !(sp.upcalls)

let check_strings = Alcotest.(check (list string))

(* A 40-page lazy VMA whose page 32 starts a new leaf. Touching pages
   0-29 makes requests at 0, 9, 18 and 27, and the last one's readahead
   runs through the leaf end to page 35; pages 30-35 stay prefetched
   until the next touch reaches them. *)
let test_window_crosses_leaf () =
  let base a =
    Vmem.Addr_space.mmap_base a + ((Vmem.Addr.entries_per_table - 32) * page)
  in
  let fast, results =
    twin
      [
        (fun sp -> map_lazy_pages sp.a ~addr:(base sp.a) ~pages:40);
        (fun sp -> touch_pages sp.a ~addr:(base sp.a) ~pages:30);
        (fun sp -> residency sp.a);
        (fun sp -> touch_pages sp.a ~addr:(base sp.a + (30 * page)) ~pages:10);
        (fun sp -> residency sp.a);
      ]
  in
  check_strings "steps"
    [ "ok"; "touch:30"; "resident:36 prefetched:6"; "touch:10";
      "resident:40 prefetched:0" ]
    results;
  check_strings "requests"
    [ "image:9@0"; "image:9@36"; "image:9@72"; "image:9@108"; "image:4@144" ]
    (upcall_shapes fast)

(* The pager refuses its fourth consultation, page 3 of the first
   window: that request gets pages 0-2, and the walk resumes at page 3
   as the faulting page of the next. *)
let test_window_refused_pull () =
  let deny () =
    let calls = ref 0 in
    fun () ->
      incr calls;
      !calls = 4
  in
  let base a = Vmem.Addr_space.mmap_base a in
  let fast, results =
    twin ~deny
      [
        (fun sp -> map_lazy_pages sp.a ~addr:(base sp.a) ~pages:16);
        (fun sp -> touch_pages sp.a ~addr:(base sp.a) ~pages:12);
        (fun sp -> residency sp.a);
      ]
  in
  check_strings "steps" [ "ok"; "touch:12"; "resident:12 prefetched:0" ] results;
  check_strings "requests" [ "image:3@0"; "image:9@12" ] (upcall_shapes fast)

(* A lazy-zygote child whose heap VMA holds its own lazy pages 2-4,
   template-backed pages, and a munmap hole at page 9: the brk growth
   re-covers the lazy mapping and the hole with one heap VMA. One
   request's window runs from the lazy pages into the backed ones and
   stops at the hole. *)
let test_window_lazy_into_backed () =
  let base a = Vmem.Addr_space.mmap_base a + (64 * page) in
  let child sp = Option.get !(sp.lazy_child) in
  let at sp k = base sp.a + (k * page) in
  let fast, results =
    twin
      [
        (fun sp ->
          Vmem.Addr_space.set_heap_base sp.a (base sp.a);
          show_result (Vmem.Addr_space.set_brk sp.a (at sp 16)));
        (fun sp -> touch_pages sp.a ~addr:(base sp.a) ~pages:16);
        (fun sp ->
          let tpl = Vmem.Addr_space.seal sp.a in
          sp.templates := [ tpl ];
          match
            Vmem.Addr_space.clone_from_sealed tpl
              ~commit_pages:(Vmem.Addr_space.committed_pages sp.a)
          with
          | Ok (c, _) ->
            Vmem.Addr_space.set_blame_origin c
              (Vmem.Blame.new_event sp.blame ~style:"zygote" ~parent:1);
            sp.lazy_child := Some c;
            "zygote"
          | Error _ -> "zygote:error");
        (fun sp -> show_result (Vmem.Addr_space.munmap (child sp) ~addr:(at sp 2) ~len:(3 * page)));
        (fun sp -> show_result (Vmem.Addr_space.munmap (child sp) ~addr:(at sp 9) ~len:page));
        (fun sp -> map_lazy_pages (child sp) ~addr:(at sp 2) ~pages:3);
        (fun sp -> show_result (Vmem.Addr_space.set_brk (child sp) (at sp 20)));
        (fun sp -> Printf.sprintf "vmas:%d" (Vmem.Addr_space.vma_count (child sp)));
        (fun sp -> touch_pages (child sp) ~addr:(at sp 2) ~pages:4);
        (fun sp -> residency (child sp));
        (fun sp -> touch_pages (child sp) ~addr:(at sp 6) ~pages:14);
        (fun sp -> residency (child sp));
      ]
  in
  check_strings "steps"
    [ "ok"; "touch:16"; "zygote"; "ok"; "ok"; "ok"; "ok"; "vmas:1"; "touch:4";
      "resident:7 prefetched:3"; "touch:14"; "resident:18 prefetched:0" ]
    results;
  check_strings "requests" [ "image:3@0"; "backing:4"; "backing:6" ]
    (upcall_shapes fast)

let qsuite name tests = (name, List.map QCheck_alcotest.to_alcotest tests)
let tc n f = Alcotest.test_case n `Quick f

let () =
  Alcotest.run "vmem"
    [
      ( "addr",
        [
          tc "alignment" test_addr_alignment;
          tc "pages" test_addr_pages;
          tc "table index" test_addr_table_index;
        ] );
      qsuite "addr-props" [ prop_addr_align; prop_addr_index_recompose ];
      ("perm", [ tc "allows" test_perm_allows; tc "ops" test_perm_ops ]);
      ( "frame",
        [
          tc "alloc/free" test_frame_alloc_free;
          tc "refcount" test_frame_refcount;
          tc "oom" test_frame_oom;
          tc "unallocated" test_frame_unallocated_ops;
          tc "commit strict" test_frame_commit;
          tc "overcommit" test_frame_overcommit;
          tc "data" test_frame_data;
          tc "free discards data" test_frame_free_discards_data;
          tc "pin" test_frame_pin;
          tc "pin spilled" test_frame_pin_spilled;
          tc "pin many" test_frame_pin_many;
          QCheck_alcotest.to_alcotest prop_unshare_many;
        ] );
      ( "pte",
        [ tc "roundtrip" test_pte_roundtrip; tc "updates" test_pte_updates ] );
      qsuite "pte-props" [ prop_pte_roundtrip ];
      ( "page-table",
        [
          tc "map/lookup" test_pt_map_lookup;
          tc "unmap" test_pt_unmap;
          tc "node growth" test_pt_node_growth;
          tc "fold order" test_pt_fold_order;
          tc "update" test_pt_update;
          tc "clone cow" test_pt_clone_cow;
          tc "clear" test_pt_clear;
          tc "fork cycle heap" test_pt_fork_cycle_heap;
        ] );
      qsuite "page-table-props" [ prop_pt_map_unmap ];
      ( "region-map",
        [
          tc "add/overlap" test_rm_add_overlap;
          tc "find" test_rm_find;
          tc "carve middle" test_rm_carve_middle;
          tc "carve span" test_rm_carve_span;
          tc "carve crop callback" test_rm_carve_crop_callback;
          tc "find gap" test_rm_find_gap;
        ] );
      qsuite "region-map-props" [ prop_rm_invariant ];
      ( "cost",
        [
          tc "category table" test_cost_table;
          tc "nan rejected" test_cost_rejects_nan;
        ] );
      ("tlb", [ tc "accounting" test_tlb_accounting ]);
      ( "addr-space",
        [
          tc "mmap gap" test_as_mmap_gap;
          tc "mmap hint" test_as_mmap_hint;
          tc "demand zero" test_as_demand_zero;
          tc "segfault/perms" test_as_segfault_and_perms;
          tc "munmap partial" test_as_munmap_partial;
          tc "munmap hole" test_as_munmap_hole_ok;
          tc "protect" test_as_protect;
          tc "protect restore" test_as_protect_restore;
          tc "brk" test_as_brk;
          tc "cow semantics" test_as_cow_semantics;
          tc "cow layout inherited" test_as_cow_layout_inherited;
          tc "fork cost scales" test_as_fork_cost_scales;
          tc "destroy releases" test_as_destroy_releases;
          tc "seal/clone" test_as_seal_clone;
          tc "seal commit limit" test_as_seal_clone_commit_limit;
          tc "fork commit limit" test_as_fork_commit_limit;
          tc "clone eager" test_as_clone_eager;
          tc "shared mapping fork" test_as_shared_mapping_fork;
          tc "map image page" test_as_map_image_page;
          tc "oom fault" test_as_oom_fault;
        ] );
      qsuite "addr-space-props"
        [ prop_as_fork_refcounts; prop_cow_model; prop_batched_oracle ];
      ( "pager-window",
        [
          tc "readahead crosses a leaf end" test_window_crosses_leaf;
          tc "a refused pull cuts the window" test_window_refused_pull;
          tc "lazy run into backed run, up to a hole" test_window_lazy_into_backed;
        ] );
    ]
