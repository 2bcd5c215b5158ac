(* snapshot_server: the one fork idiom the paper concedes is genuinely
   hard to replace -- a cheap point-in-time snapshot (Redis BGSAVE).

     dune exec examples/snapshot_server.exe

   A "database" process owns a memory region and keeps mutating it. To
   persist, it forks: the child walks the (COW-shared) pages and saves
   them to a file while the parent keeps writing. The saved snapshot
   must reflect the exact fork instant -- none of the parent's
   concurrent writes may leak in. This example verifies that property
   byte-for-byte on the simulator, then shows what the snapshot cost the
   parent (E11 quantifies the same thing as a sweep). *)

let db_pages = 32
let page = Vmem.Addr.page_size

let ok = function
  | Ok v -> v
  | Error e -> failwith ("snapshot_server: " ^ Ksim.Errno.to_string e)

(* One byte per page is enough to carry the generation stamp. *)
let write_generation ~addr gen =
  for i = 0 to db_pages - 1 do
    ok (Ksim.Api.mem_write ~addr:(addr + (i * page)) (String.make 1 (Char.chr gen)))
  done

let read_generation_bytes ~addr =
  List.init db_pages (fun i ->
      (ok (Ksim.Api.mem_read ~addr:(addr + (i * page)) ~len:1)).[0])

let save_snapshot ~addr path =
  let fd = ok (Ksim.Api.openf ~flags:Ksim.Types.o_wronly path) in
  List.iter
    (fun byte ->
      ok (Ksim.Api.write_all fd (String.make 1 byte));
      (* be slow on purpose: give the parent time to interleave writes *)
      Ksim.Api.yield ())
    (read_generation_bytes ~addr);
  ok (Ksim.Api.close fd)

let database () =
  let addr = ok (Ksim.Api.mmap ~len:(db_pages * page) ~perm:Vmem.Perm.rw) in
  (* generation 7 is the state we want persisted *)
  write_generation ~addr 7;
  Ksim.Api.print (Printf.sprintf "parent: db at generation 7 (%d pages)\n" db_pages);
  let snapshotter =
    ok
      (Ksim.Api.fork ~child:(fun () ->
           save_snapshot ~addr "/tmp/db.snapshot";
           Ksim.Api.exit 0))
  in
  (* mutate aggressively while the child is saving *)
  write_generation ~addr 8;
  write_generation ~addr 9;
  Ksim.Api.print "parent: mutated through generations 8 and 9 during the save\n";
  ignore (ok (Ksim.Api.wait_for snapshotter));
  (* verdicts *)
  let live = read_generation_bytes ~addr in
  let all_gen g l = List.for_all (fun c -> Char.code c = g) l in
  Ksim.Api.print
    (Printf.sprintf "parent: live db is %s\n"
       (if all_gen 9 live then "uniformly generation 9" else "MIXED (bug!)"))

let () =
  let init = Ksim.Program.make ~name:"/sbin/init" (fun ~argv:_ () -> database ()) in
  match Ksim.Kernel.boot ~programs:[ init ] "/sbin/init" with
  | Error e -> prerr_endline ("boot failed: " ^ Ksim.Errno.to_string e)
  | Ok (t, outcome) ->
    print_string (Ksim.Kernel.console t);
    let snapshot =
      match Ksim.Vfs.read_file (Ksim.Kernel.vfs t) ~cwd:"/" "/tmp/db.snapshot" with
      | Ok s -> s
      | Error _ -> ""
    in
    let consistent =
      String.length snapshot = db_pages
      && String.for_all (fun c -> Char.code c = 7) snapshot
    in
    Printf.printf "snapshot file: %d pages, %s\n" (String.length snapshot)
      (if consistent then
         "every byte from generation 7 -- a perfect point-in-time copy"
       else "INCONSISTENT");
    let cost = Ksim.Kernel.cost t in
    Printf.printf
      "what COW charged for it: %s of page copies (parent re-dirtying \
       while the child lived), %s of page-table copying at fork\n"
      (Metrics.Units.cycles (Vmem.Cost.get cost Fault_cow_copy))
      (Metrics.Units.cycles
         (Vmem.Cost.get cost Fork_pte +. Vmem.Cost.get cost Fork_pt_node));
    Format.printf "simulation outcome: %a@." Ksim.Kernel.pp_outcome outcome
