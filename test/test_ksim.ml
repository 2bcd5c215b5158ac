(* Unit and integration tests for the ksim kernel simulator. The
   integration tests boot a kernel with small OCaml-closure programs and
   assert on console output, exit statuses and scheduler outcomes. *)

let check_int = Alcotest.(check int)
let check_bool = Alcotest.(check bool)
let check_str = Alcotest.(check string)

let ok = function
  | Ok v -> v
  | Error _ -> Alcotest.fail "expected Ok"

let errno = Alcotest.testable Ksim.Errno.pp Ksim.Errno.equal

let expect_errno e = function
  | Error got -> Alcotest.check errno "errno" e got
  | Ok _ -> Alcotest.fail "expected Error"

(* ------------------------------------------------------------------ *)
(* Usignal *)

let test_signal_numbers () =
  check_int "SIGKILL" 9 (Ksim.Usignal.number Ksim.Usignal.SIGKILL);
  Alcotest.(check (option (testable Ksim.Usignal.pp Ksim.Usignal.equal)))
    "roundtrip" (Some Ksim.Usignal.SIGTERM) (Ksim.Usignal.of_number 15);
  check_bool "kill uncatchable" false (Ksim.Usignal.catchable Ksim.Usignal.SIGKILL);
  check_bool "term catchable" true (Ksim.Usignal.catchable Ksim.Usignal.SIGTERM)

let test_signal_set () =
  let open Ksim.Usignal in
  let s = Set.of_list [ SIGINT; SIGTERM ] in
  check_bool "mem" true (Set.mem SIGINT s);
  check_bool "not mem" false (Set.mem SIGHUP s);
  let s2 = Set.remove SIGINT s in
  check_bool "removed" false (Set.mem SIGINT s2);
  check_bool "still there" true (Set.mem SIGTERM s2);
  check_bool "full has no SIGKILL" false (Set.mem SIGKILL Set.full)

let prop_sigset_algebra =
  let gen_sig = QCheck.oneofl Ksim.Usignal.all in
  QCheck.Test.make ~count:200 ~name:"sigset: union/inter/diff are setwise"
    QCheck.(pair (list gen_sig) (list gen_sig))
    (fun (a, b) ->
      let open Ksim.Usignal in
      let sa = Set.of_list a and sb = Set.of_list b in
      List.for_all
        (fun s ->
          Set.mem s (Set.union sa sb) = (Set.mem s sa || Set.mem s sb)
          && Set.mem s (Set.inter sa sb) = (Set.mem s sa && Set.mem s sb)
          && Set.mem s (Set.diff sa sb) = (Set.mem s sa && not (Set.mem s sb)))
        all)

(* ------------------------------------------------------------------ *)
(* Pipe *)

let test_pipe_rw () =
  let p = Ksim.Pipe.create ~capacity:8 () in
  Ksim.Pipe.add_reader p;
  Ksim.Pipe.add_writer p;
  check_int "write partial" 8 (Ksim.Pipe.write p "0123456789");
  check_int "space" 0 (Ksim.Pipe.space p);
  check_str "read" "0123" (Ksim.Pipe.read p 4);
  check_int "space back" 4 (Ksim.Pipe.space p);
  check_str "rest" "4567" (Ksim.Pipe.read p 100);
  check_bool "not eof (writer alive)" false (Ksim.Pipe.eof p);
  Ksim.Pipe.drop_writer p;
  check_bool "eof" true (Ksim.Pipe.eof p);
  Ksim.Pipe.drop_reader p;
  check_bool "broken" true (Ksim.Pipe.broken p)

let test_pipe_compaction () =
  let p = Ksim.Pipe.create ~capacity:65536 () in
  Ksim.Pipe.add_writer p;
  (* push/pull enough that an uncompacted buffer would keep growing *)
  for _ = 1 to 100 do
    ignore (Ksim.Pipe.write p (String.make 8192 'x'));
    ignore (Ksim.Pipe.read p 8192)
  done;
  check_int "drained" 0 (Ksim.Pipe.available p)

(* ------------------------------------------------------------------ *)
(* Vfs *)

let test_vfs_normalize () =
  Alcotest.(check (list string))
    "abs" [ "a"; "b" ]
    (Ksim.Vfs.normalize ~cwd:"/" "/a//b/");
  Alcotest.(check (list string))
    "rel" [ "tmp"; "x" ]
    (Ksim.Vfs.normalize ~cwd:"/tmp" "x");
  Alcotest.(check (list string))
    "dotdot" [ "b" ]
    (Ksim.Vfs.normalize ~cwd:"/" "/a/../b/.");
  Alcotest.(check (list string))
    "dotdot past root" []
    (Ksim.Vfs.normalize ~cwd:"/" "../../..")

let test_vfs_files () =
  let fs = Ksim.Vfs.create () in
  check_bool "no file yet" false (Ksim.Vfs.file_exists fs ~cwd:"/" "/tmp/a");
  let r = ok (Ksim.Vfs.create_file fs ~cwd:"/" "/tmp/a" ~trunc:false) in
  check_int "written" 5 (Ksim.Vfs.Reg.write r ~off:0 "hello");
  check_str "read back" "hello" (ok (Ksim.Vfs.read_file fs ~cwd:"/" "/tmp/a"));
  (* sparse write past EOF reads back zeroes in the gap *)
  ignore (Ksim.Vfs.Reg.write r ~off:8 "x");
  check_str "sparse" "hello\000\000\000x" (ok (Ksim.Vfs.read_file fs ~cwd:"/tmp" "a"));
  expect_errno Ksim.Errno.ENOENT (Ksim.Vfs.read_file fs ~cwd:"/" "/tmp/missing");
  expect_errno Ksim.Errno.EISDIR (Ksim.Vfs.read_file fs ~cwd:"/" "/tmp")

let test_vfs_mkdir () =
  let fs = Ksim.Vfs.create () in
  ok (Ksim.Vfs.mkdir fs ~cwd:"/" "/tmp/sub");
  ignore (ok (Ksim.Vfs.create_file fs ~cwd:"/tmp/sub" "f" ~trunc:false));
  check_bool "nested file" true (Ksim.Vfs.file_exists fs ~cwd:"/" "/tmp/sub/f");
  expect_errno Ksim.Errno.EEXIST (Ksim.Vfs.mkdir fs ~cwd:"/" "/tmp/sub");
  expect_errno Ksim.Errno.ENOENT (Ksim.Vfs.mkdir fs ~cwd:"/" "/nope/sub")

(* ------------------------------------------------------------------ *)
(* Fd_table and Ofd *)

let make_reg () =
  let fs = Ksim.Vfs.create () in
  ok (Ksim.Vfs.create_file fs ~cwd:"/" "/tmp/f" ~trunc:false)

let test_fdt_basic () =
  let t = Ksim.Fd_table.create ~max_fds:8 () in
  let r = make_reg () in
  let ofd = Ksim.Ofd.make (Ksim.Ofd.Reg_file r) ~flags:Ksim.Types.o_rdwr in
  let fd = ok (Ksim.Fd_table.alloc t ~cloexec:false ofd) in
  check_int "lowest" 0 fd;
  let fd2 = ok (Ksim.Fd_table.dup t fd) in
  check_int "dup next" 1 fd2;
  check_int "refs" 2 (Ksim.Ofd.refs ofd);
  (* dup shares the offset: write via one, offset moves for both *)
  (match Ksim.Ofd.write ofd "abc" with
  | Ksim.Ofd.Wrote 3 -> ()
  | _ -> Alcotest.fail "write");
  check_int "shared offset" 3 (Ksim.Ofd.offset (ok (Ksim.Fd_table.get t fd2)));
  ok (Ksim.Fd_table.close t fd);
  check_int "refs after close" 1 (Ksim.Ofd.refs ofd);
  expect_errno Ksim.Errno.EBADF (Ksim.Fd_table.get t fd)

let test_fdt_dup2_cloexec () =
  let t = Ksim.Fd_table.create ~max_fds:8 () in
  let r = make_reg () in
  let ofd = Ksim.Ofd.make (Ksim.Ofd.Reg_file r) ~flags:Ksim.Types.o_rdwr in
  let fd = ok (Ksim.Fd_table.alloc t ~cloexec:true ofd) in
  check_bool "cloexec set" true (ok (Ksim.Fd_table.cloexec t fd));
  let dst = ok (Ksim.Fd_table.dup2 t ~src:fd ~dst:5) in
  check_int "dst" 5 dst;
  check_bool "dup2 clears cloexec" false (ok (Ksim.Fd_table.cloexec t 5));
  Ksim.Fd_table.close_cloexec t;
  expect_errno Ksim.Errno.EBADF (Ksim.Fd_table.get t fd);
  (* the dup2'd copy survives exec *)
  ignore (ok (Ksim.Fd_table.get t 5));
  check_int "count" 1 (Ksim.Fd_table.count t)

let test_fdt_clone_shares () =
  let t = Ksim.Fd_table.create ~max_fds:8 () in
  let r = make_reg () in
  let ofd = Ksim.Ofd.make (Ksim.Ofd.Reg_file r) ~flags:Ksim.Types.o_rdwr in
  ignore (ok (Ksim.Fd_table.alloc t ~cloexec:true ofd));
  let c = Ksim.Fd_table.clone t in
  check_int "refs" 2 (Ksim.Ofd.refs ofd);
  check_bool "cloexec copied" true (ok (Ksim.Fd_table.cloexec c 0));
  (* offset shared across the clone, as across fork *)
  (match Ksim.Ofd.write (ok (Ksim.Fd_table.get c 0)) "xy" with
  | Ksim.Ofd.Wrote 2 -> ()
  | _ -> Alcotest.fail "write");
  check_int "offset via parent" 2 (Ksim.Ofd.offset (ok (Ksim.Fd_table.get t 0)))

(* Fd_table against a model: the flat table it replaced, [max_fds]
   slots from creation and every walk over all of them. The model's
   slots hold description numbers: description [i] is the one the
   run's [i]th alloc op made. *)
module Flat_fdt = struct
  type t = { slots : (int * bool) option array; mutable next_fd : int }

  let create limit = { slots = Array.make limit None; next_fd = 0 }
  let limit t = Array.length t.slots

  let free t fd =
    t.slots.(fd) <- None;
    if fd < t.next_fd then t.next_fd <- fd

  let alloc t ~at_least ~cloexec id =
    if at_least < 0 || at_least >= limit t then Error Ksim.Errno.EINVAL
    else begin
      let rec find fd =
        if fd >= limit t then Error Ksim.Errno.EMFILE
        else if t.slots.(fd) = None then begin
          t.slots.(fd) <- Some (id, cloexec);
          Ok fd
        end
        else find (fd + 1)
      in
      let r = find (max at_least t.next_fd) in
      (match r with
      | Ok fd when at_least <= t.next_fd -> t.next_fd <- fd + 1
      | Ok _ | Error _ -> ());
      r
    end

  let entry t fd =
    if fd < 0 || fd >= limit t then Error Ksim.Errno.EBADF
    else match t.slots.(fd) with None -> Error Ksim.Errno.EBADF | Some e -> Ok e

  let close t fd = Result.map (fun _ -> free t fd) (entry t fd)

  let dup t fd =
    match entry t fd with
    | Error e -> Error e
    | Ok (id, _) -> alloc t ~at_least:0 ~cloexec:false id

  let dup2 t ~src ~dst =
    match entry t src with
    | Error e -> Error e
    | Ok (id, _) ->
      if dst < 0 || dst >= limit t then Error Ksim.Errno.EBADF
      else if src = dst then Ok dst
      else begin
        t.slots.(dst) <- Some (id, false);
        Ok dst
      end

  let set_cloexec t fd v =
    Result.map (fun (id, _) -> t.slots.(fd) <- Some (id, v)) (entry t fd)

  let clone t = { slots = Array.copy t.slots; next_fd = t.next_fd }

  let close_cloexec t =
    Array.iteri
      (fun fd -> function Some (_, true) -> free t fd | Some _ | None -> ())
      t.slots

  let close_all t =
    Array.iteri (fun fd -> function Some _ -> free t fd | None -> ()) t.slots

  let opened t =
    List.filter_map
      (fun fd -> Option.map (fun (id, cx) -> (fd, id, cx)) t.slots.(fd))
      (List.init (limit t) Fun.id)
end

(* Each op names a table by its index among the live ones, modulo
   their number; [F_clone] adds one. *)
type fdt_op =
  | F_alloc of int * int option * bool  (* table, at_least, cloexec *)
  | F_close of int * int
  | F_dup of int * int
  | F_dup2 of int * int * int  (* table, src, dst *)
  | F_set_cloexec of int * int * bool
  | F_clone of int
  | F_close_cloexec of int
  | F_close_all of int

let show_fdt_op = function
  | F_alloc (k, a, cx) ->
    Printf.sprintf "alloc t%d at_least=%s cloexec=%b" k
      (match a with Some n -> string_of_int n | None -> "-")
      cx
  | F_close (k, fd) -> Printf.sprintf "close t%d %d" k fd
  | F_dup (k, fd) -> Printf.sprintf "dup t%d %d" k fd
  | F_dup2 (k, src, dst) -> Printf.sprintf "dup2 t%d %d->%d" k src dst
  | F_set_cloexec (k, fd, v) -> Printf.sprintf "set_cloexec t%d %d %b" k fd v
  | F_clone k -> Printf.sprintf "clone t%d" k
  | F_close_cloexec k -> Printf.sprintf "close_cloexec t%d" k
  | F_close_all k -> Printf.sprintf "close_all t%d" k

(* Limits up to 40 cross the 8, 16 and 32 slot doublings. Fds lean
   toward the low ones a lowest-free table hands out, and also take
   -1, any value up to the limit, and the limit's two edges. *)
let gen_fdt_scenario =
  QCheck.Gen.(
    1 -- 40 >>= fun limit ->
    let fd =
      frequency
        [
          (6, int_bound 11);
          (2, -1 -- limit);
          (1, return (limit - 1));
          (1, return limit);
        ]
    in
    let tbl = int_bound 3 in
    let op =
      frequency
        [
          ( 8,
            map3
              (fun k a cx -> F_alloc (k, a, cx))
              tbl
              (frequency [ (3, return None); (1, map Option.some fd) ])
              bool );
          (3, map2 (fun k f -> F_close (k, f)) tbl fd);
          (3, map2 (fun k f -> F_dup (k, f)) tbl fd);
          (3, map3 (fun k s d -> F_dup2 (k, s, d)) tbl fd fd);
          (2, map3 (fun k f v -> F_set_cloexec (k, f, v)) tbl fd bool);
          (1, map (fun k -> F_clone k) tbl);
          (1, map (fun k -> F_close_cloexec k) tbl);
          (1, map (fun k -> F_close_all k) tbl);
        ]
    in
    pair (return limit) (list_size (0 -- 60) op))

let prop_fdt_model =
  QCheck.Test.make ~count:300 ~long_factor:20
    ~name:"fd table: matches the flat max_fds table"
    (QCheck.make gen_fdt_scenario ~print:(fun (limit, ops) ->
         Printf.sprintf "max_fds %d: %s" limit
           (String.concat "; " (List.map show_fdt_op ops))))
    (fun (limit, ops) ->
      let tables = ref [ (Ksim.Fd_table.create ~max_fds:limit (), Flat_fdt.create limit) ] in
      let ofds = ref [] (* newest first: description i is the (i+1)th from the end *) in
      let id_of ofd =
        let rec find i = function
          | [] -> QCheck.Test.fail_report "unknown description"
          | o :: rest -> if o == ofd then i else find (i - 1) rest
        in
        find (List.length !ofds - 1) !ofds
      in
      let pick k = List.nth !tables (k mod List.length !tables) in
      let same what real model =
        if real <> model then QCheck.Test.fail_reportf "%s differs" what
      in
      let step op =
        match op with
        | F_alloc (k, at_least, cloexec) ->
          let t, m = pick k in
          let id = List.length !ofds in
          let ofd = Ksim.Ofd.make Ksim.Ofd.Null ~flags:Ksim.Types.o_rdwr in
          ofds := ofd :: !ofds;
          let r = Ksim.Fd_table.alloc t ?at_least ~cloexec ofd in
          (* a failed install leaves the caller's reference to drop *)
          if Result.is_error r then Ksim.Ofd.close ofd;
          same "alloc" r
            (Flat_fdt.alloc m ~at_least:(Option.value at_least ~default:0) ~cloexec id)
        | F_close (k, fd) ->
          let t, m = pick k in
          same "close" (Ksim.Fd_table.close t fd) (Flat_fdt.close m fd)
        | F_dup (k, fd) ->
          let t, m = pick k in
          same "dup" (Ksim.Fd_table.dup t fd) (Flat_fdt.dup m fd)
        | F_dup2 (k, src, dst) ->
          let t, m = pick k in
          same "dup2" (Ksim.Fd_table.dup2 t ~src ~dst) (Flat_fdt.dup2 m ~src ~dst)
        | F_set_cloexec (k, fd, v) ->
          let t, m = pick k in
          same "set_cloexec" (Ksim.Fd_table.set_cloexec t fd v)
            (Flat_fdt.set_cloexec m fd v)
        | F_clone k ->
          let t, m = pick k in
          tables := !tables @ [ (Ksim.Fd_table.clone t, Flat_fdt.clone m) ]
        | F_close_cloexec k ->
          let t, m = pick k in
          Ksim.Fd_table.close_cloexec t;
          Flat_fdt.close_cloexec m
        | F_close_all k ->
          let t, m = pick k in
          Ksim.Fd_table.close_all t;
          Flat_fdt.close_all m
      in
      let agree () =
        List.iter
          (fun (t, m) ->
            let opened = ref [] in
            Ksim.Fd_table.iter t (fun fd ofd ~cloexec ->
                opened := (fd, id_of ofd, cloexec) :: !opened);
            same "iter" (List.rev !opened) (Flat_fdt.opened m);
            same "count" (Ksim.Fd_table.count t) (List.length (Flat_fdt.opened m));
            for fd = -1 to limit do
              same "get"
                (Result.map id_of (Ksim.Fd_table.get t fd))
                (Result.map fst (Flat_fdt.entry m fd));
              same "cloexec" (Ksim.Fd_table.cloexec t fd)
                (Result.map snd (Flat_fdt.entry m fd))
            done)
          !tables;
        (* every description's references are the slots naming it *)
        List.iteri
          (fun i ofd ->
            let id = List.length !ofds - 1 - i in
            let slots =
              List.fold_left
                (fun n (_, m) ->
                  n + List.length (List.filter (fun (_, d, _) -> d = id) (Flat_fdt.opened m)))
                0 !tables
            in
            same "refs" (Ksim.Ofd.refs ofd) slots)
          !ofds
      in
      List.iter
        (fun op ->
          step op;
          agree ())
        ops;
      true)

(* ------------------------------------------------------------------ *)
(* Sync *)

let test_sync_clone () =
  let tbl = Ksim.Sync.create_table () in
  let m = Ksim.Sync.create tbl in
  m.Ksim.Sync.state <- Ksim.Sync.Locked_by 42;
  let c = Ksim.Sync.clone_table tbl in
  (match Ksim.Sync.find c m.Ksim.Sync.id with
  | Some cm ->
    check_bool "state copied" true (cm.Ksim.Sync.state = Ksim.Sync.Locked_by 42);
    (* distinct records *)
    cm.Ksim.Sync.state <- Ksim.Sync.Unlocked;
    check_bool "original untouched" true
      (m.Ksim.Sync.state = Ksim.Sync.Locked_by 42)
  | None -> Alcotest.fail "clone lost mutex");
  Alcotest.(check (list pass))
    "orphan detection" [ () ]
    (List.map ignore
       (Ksim.Sync.held_by_missing_thread tbl ~live_tids:[ 1; 2 ]))

(* ------------------------------------------------------------------ *)
(* Trace *)

let test_trace_ring () =
  let tr = Ksim.Trace.create ~capacity:4 () in
  for i = 1 to 6 do
    Ksim.Trace.record tr ~tick:i ~pid:1 ~tid:1 (Printf.sprintf "ev%d" i)
  done;
  check_int "total" 6 (Ksim.Trace.total tr);
  let evs = Ksim.Trace.events tr in
  check_int "kept" 4 (List.length evs);
  check_str "oldest kept" "ev3" (List.hd evs).Ksim.Trace.what;
  check_int "find" 1 (List.length (Ksim.Trace.find tr ~pattern:"ev5"))

(* ------------------------------------------------------------------ *)
(* Kernel integration helpers *)

let prog ?text_kib ?data_kib name body =
  Ksim.Program.make ?text_kib ?data_kib ~name (fun ~argv () -> body argv)

let boot ?config ?(programs = []) body =
  let init = prog "/sbin/init" body in
  match Ksim.Kernel.boot ?config ~programs:(init :: programs) "/sbin/init" with
  | Error _ -> Alcotest.fail "boot failed"
  | Ok (t, outcome) -> (t, outcome)

let all_exited = function
  | Ksim.Kernel.All_exited -> ()
  | o -> Alcotest.failf "expected all-exited, got %a" Ksim.Kernel.pp_outcome o

let page = Vmem.Addr.page_size

(* ------------------------------------------------------------------ *)
(* Kernel basics *)

let test_hello () =
  let t, outcome =
    boot (fun _argv ->
        Ksim.Api.print "hello, kernel\n";
        Ksim.Api.exit 0)
  in
  all_exited outcome;
  check_str "console" "hello, kernel\n" (Ksim.Kernel.console t);
  (match Ksim.Kernel.status_of t 1 with
  | Some (Ksim.Types.Exited 0) -> ()
  | _ -> Alcotest.fail "init status")

let test_natural_return_is_exit0 () =
  let t, outcome = boot (fun _ -> ()) in
  all_exited outcome;
  match Ksim.Kernel.status_of t 1 with
  | Some (Ksim.Types.Exited 0) -> ()
  | _ -> Alcotest.fail "status"

let test_exit_code () =
  let t, outcome =
    boot (fun _ ->
        let pid =
          ok (Ksim.Api.fork ~child:(fun () -> Ksim.Api.exit 7))
        in
        match ok (Ksim.Api.wait_for pid) with
        | Ksim.Types.Exited 7 -> Ksim.Api.print "ok"
        | _ -> Ksim.Api.print "bad")
  in
  all_exited outcome;
  check_str "console" "ok" (Ksim.Kernel.console t)

(* ------------------------------------------------------------------ *)
(* fork semantics *)

let test_fork_memory_cow () =
  let t, outcome =
    boot (fun _ ->
        let addr = ok (Ksim.Api.mmap ~len:page ~perm:Vmem.Perm.rw) in
        ok (Ksim.Api.mem_write ~addr "P");
        let pid =
          ok
            (Ksim.Api.fork ~child:(fun () ->
                 (* child sees parent's data, then writes privately *)
                 let inherited = ok (Ksim.Api.mem_read ~addr ~len:1) in
                 Ksim.Api.print ("child-sees:" ^ inherited ^ ";");
                 ok (Ksim.Api.mem_write ~addr "C");
                 Ksim.Api.print
                   ("child-now:" ^ ok (Ksim.Api.mem_read ~addr ~len:1) ^ ";");
                 Ksim.Api.exit 0))
        in
        ignore (ok (Ksim.Api.wait_for pid));
        Ksim.Api.print ("parent:" ^ ok (Ksim.Api.mem_read ~addr ~len:1)))
  in
  all_exited outcome;
  check_str "console" "child-sees:P;child-now:C;parent:P" (Ksim.Kernel.console t)

let test_fork_pending_signals_cleared () =
  let t, outcome =
    boot (fun _ ->
        ignore
          (ok
             (Ksim.Api.sigaction Ksim.Usignal.SIGUSR1
                (Ksim.Usignal.Handler "h")));
        (* block, then self-signal so it sits pending *)
        ignore
          (Ksim.Api.sigprocmask Ksim.Types.Block
             (Ksim.Usignal.Set.of_list [ Ksim.Usignal.SIGUSR1 ]));
        ok (Ksim.Api.kill (Ksim.Api.getpid ()) Ksim.Usignal.SIGUSR1);
        let pid =
          ok
            (Ksim.Api.fork ~child:(fun () ->
                 (* child: unblocking must deliver nothing (pending set
                    was cleared by fork) *)
                 ignore
                   (Ksim.Api.sigprocmask Ksim.Types.Unblock
                      (Ksim.Usignal.Set.of_list [ Ksim.Usignal.SIGUSR1 ]));
                 Ksim.Api.print
                   (Printf.sprintf "child-handled:%d;"
                      (Ksim.Api.handled_signals "h"));
                 Ksim.Api.exit 0))
        in
        ignore (ok (Ksim.Api.wait_for pid));
        (* parent: unblock delivers the pending signal *)
        ignore
          (Ksim.Api.sigprocmask Ksim.Types.Unblock
             (Ksim.Usignal.Set.of_list [ Ksim.Usignal.SIGUSR1 ]));
        Ksim.Api.print
          (Printf.sprintf "parent-handled:%d" (Ksim.Api.handled_signals "h")))
  in
  all_exited outcome;
  check_str "console" "child-handled:0;parent-handled:1" (Ksim.Kernel.console t)

let test_fork_only_calling_thread () =
  (* the second thread does not exist in the child: its ticker stops *)
  let t, outcome =
    boot (fun _ ->
        ignore
          (ok
             (Ksim.Api.thread_create (fun () ->
                  for _ = 1 to 3 do
                    Ksim.Api.print "T";
                    Ksim.Api.yield ()
                  done)));
        Ksim.Api.yield ();
        let pid =
          ok
            (Ksim.Api.fork ~child:(fun () ->
                 Ksim.Api.print "C";
                 Ksim.Api.exit 0))
        in
        ignore (ok (Ksim.Api.wait_for pid));
        Ksim.Api.print "P")
  in
  all_exited outcome;
  (* exactly three T's: the ticker ran only in the parent *)
  let ts =
    String.fold_left
      (fun n c -> if c = 'T' then n + 1 else n)
      0 (Ksim.Kernel.console t)
  in
  check_int "ticker only in parent" 3 ts;
  all_exited outcome

let test_fork_commit_limit () =
  let config =
    { Ksim.Kernel.default_config with
      Ksim.Kernel.phys_pages = 2048;
      commit_policy = Vmem.Frame.Strict;
      aslr = false }
  in
  let t, outcome =
    boot ~config (fun _ ->
        let addr = ok (Ksim.Api.mmap ~len:(1200 * page) ~perm:Vmem.Perm.rw) in
        ignore addr;
        match Ksim.Api.fork ~child:(fun () -> Ksim.Api.exit 0) with
        | Error Ksim.Errno.ENOMEM -> Ksim.Api.print "fork-enomem"
        | Error _ -> Ksim.Api.print "fork-other-error"
        | Ok pid ->
          ignore (ok (Ksim.Api.wait_for pid));
          Ksim.Api.print "fork-ok")
  in
  all_exited outcome;
  check_str "strict commit rejects big fork" "fork-enomem" (Ksim.Kernel.console t);
  (* same workload under overcommit succeeds *)
  let config = { config with Ksim.Kernel.commit_policy = Vmem.Frame.Overcommit } in
  let t, outcome =
    boot ~config (fun _ ->
        ignore (ok (Ksim.Api.mmap ~len:(1200 * page) ~perm:Vmem.Perm.rw));
        match Ksim.Api.fork ~child:(fun () -> Ksim.Api.exit 0) with
        | Ok pid ->
          ignore (ok (Ksim.Api.wait_for pid));
          Ksim.Api.print "fork-ok"
        | Error _ -> Ksim.Api.print "fork-failed")
  in
  all_exited outcome;
  check_str "overcommit admits it" "fork-ok" (Ksim.Kernel.console t)

(* ------------------------------------------------------------------ *)
(* exec and spawn *)

let echo_prog =
  prog "/bin/echo" (fun argv ->
      Ksim.Api.print (String.concat " " argv);
      Ksim.Api.exit 0)

let true_prog = prog "/bin/true" (fun _ -> Ksim.Api.exit 0)

let test_exec_replaces_image () =
  let t, outcome =
    boot ~programs:[ echo_prog ] (fun _ ->
        let pid =
          ok
            (Ksim.Api.fork ~child:(fun () ->
                 (match Ksim.Api.exec ~argv:[ "hi"; "there" ] "/bin/echo" with
                 | Ok () -> ()
                 | Error _ -> Ksim.Api.print "exec-failed");
                 Ksim.Api.exit 127))
        in
        match ok (Ksim.Api.wait_for pid) with
        | Ksim.Types.Exited 0 -> Ksim.Api.print ";exit0"
        | st -> Ksim.Api.print (Format.asprintf ";%a" Ksim.Types.pp_status st))
  in
  all_exited outcome;
  check_str "console" "hi there;exit0" (Ksim.Kernel.console t)

let test_exec_enoent_late_error () =
  (* the fork+exec pattern discovers a missing binary only in the child,
     after the fork — the error-reporting wart the paper contrasts with
     spawn *)
  let t, outcome =
    boot (fun _ ->
        let pid =
          ok
            (Ksim.Api.fork ~child:(fun () ->
                 match Ksim.Api.exec "/bin/missing" with
                 | Error Ksim.Errno.ENOENT -> Ksim.Api.exit 127
                 | Error _ | Ok () -> Ksim.Api.exit 1))
        in
        match ok (Ksim.Api.wait_for pid) with
        | Ksim.Types.Exited 127 -> Ksim.Api.print "late-error-127"
        | _ -> Ksim.Api.print "unexpected")
  in
  all_exited outcome;
  check_str "console" "late-error-127" (Ksim.Kernel.console t)

let test_spawn_enoent_sync_error () =
  let t, outcome =
    boot (fun _ ->
        match Ksim.Api.spawn "/bin/missing" with
        | Error Ksim.Errno.ENOENT -> Ksim.Api.print "spawn-enoent"
        | Error _ | Ok _ -> Ksim.Api.print "unexpected")
  in
  all_exited outcome;
  check_str "spawn reports ENOENT synchronously" "spawn-enoent"
    (Ksim.Kernel.console t)

let test_spawn_runs_program () =
  let t, outcome =
    boot ~programs:[ echo_prog ] (fun _ ->
        let pid = ok (Ksim.Api.spawn ~argv:[ "spawned" ] "/bin/echo") in
        ignore (ok (Ksim.Api.wait_for pid));
        Ksim.Api.print ";done")
  in
  all_exited outcome;
  check_str "console" "spawned;done" (Ksim.Kernel.console t)

let test_spawn_file_actions_redirect () =
  let writer =
    prog "/bin/writer" (fun _ ->
        Ksim.Api.print "to-stdout";
        Ksim.Api.exit 0)
  in
  let t, outcome =
    boot ~programs:[ writer ] (fun _ ->
        let pid =
          ok
            (Ksim.Api.spawn
               ~file_actions:
                 [ Ksim.Types.Fa_open
                     { fd = 1; path = "/tmp/out"; flags = Ksim.Types.o_wronly } ]
               "/bin/writer")
        in
        ignore (ok (Ksim.Api.wait_for pid)))
  in
  all_exited outcome;
  check_str "redirected" "to-stdout"
    (ok (Ksim.Vfs.read_file (Ksim.Kernel.vfs t) ~cwd:"/" "/tmp/out"));
  check_str "console empty" "" (Ksim.Kernel.console t)

let test_spawn_dup2_same_fd_clears_cloexec () =
  (* POSIX: a spawn dup2 file action with src = dst clears FD_CLOEXEC,
     so "pass this fd through as-is" works without a spare slot *)
  let checker =
    prog "/bin/checker2" (fun argv ->
        let fd = int_of_string (List.hd argv) in
        (match Ksim.Api.write fd "alive" with
        | Ok _ -> ()
        | Error _ -> Ksim.Api.print "fd-missing");
        Ksim.Api.exit 0)
  in
  let t, outcome =
    boot ~programs:[ checker ] (fun _ ->
        let fd =
          ok
            (Ksim.Api.openf
               ~flags:(Ksim.Types.with_cloexec Ksim.Types.o_wronly)
               "/tmp/passed")
        in
        let pid =
          ok
            (Ksim.Api.spawn
               ~file_actions:[ Ksim.Types.Fa_dup2 (fd, fd) ]
               ~argv:[ string_of_int fd ] "/bin/checker2")
        in
        ignore (ok (Ksim.Api.wait_for pid)))
  in
  all_exited outcome;
  check_str "no complaint" "" (Ksim.Kernel.console t);
  check_str "child wrote through the fd" "alive"
    (ok (Ksim.Vfs.read_file (Ksim.Kernel.vfs t) ~cwd:"/" "/tmp/passed"))

let test_cloexec_across_exec () =
  let checker =
    prog "/bin/checker" (fun argv ->
        let fd = int_of_string (List.hd argv) in
        (match Ksim.Api.write fd "x" with
        | Error Ksim.Errno.EBADF -> Ksim.Api.print "closed;"
        | Error _ | Ok _ -> Ksim.Api.print "open;");
        Ksim.Api.exit 0)
  in
  let t, outcome =
    boot ~programs:[ checker ] (fun _ ->
        let fd =
          ok
            (Ksim.Api.openf
               ~flags:(Ksim.Types.with_cloexec Ksim.Types.o_wronly)
               "/tmp/secret")
        in
        let pid =
          ok
            (Ksim.Api.fork ~child:(fun () ->
                 (match
                    Ksim.Api.exec ~argv:[ string_of_int fd ] "/bin/checker"
                  with
                 | Ok () | Error _ -> ());
                 Ksim.Api.exit 1))
        in
        ignore (ok (Ksim.Api.wait_for pid)))
  in
  all_exited outcome;
  check_str "cloexec fd closed by exec" "closed;" (Ksim.Kernel.console t)

let test_exec_resets_handlers () =
  let reporter =
    prog "/bin/reporter" (fun _ ->
        (* after exec, a previously-caught signal must be back at Default *)
        (match Ksim.Api.sigaction Ksim.Usignal.SIGUSR1 Ksim.Usignal.Default with
        | Ok Ksim.Usignal.Default -> Ksim.Api.print "default"
        | Ok _ -> Ksim.Api.print "not-reset"
        | Error _ -> Ksim.Api.print "error");
        Ksim.Api.exit 0)
  in
  let t, outcome =
    boot ~programs:[ reporter ] (fun _ ->
        ignore
          (ok (Ksim.Api.sigaction Ksim.Usignal.SIGUSR1 (Ksim.Usignal.Handler "h")));
        let pid =
          ok
            (Ksim.Api.fork ~child:(fun () ->
                 (match Ksim.Api.exec "/bin/reporter" with Ok () | Error _ -> ());
                 Ksim.Api.exit 1))
        in
        ignore (ok (Ksim.Api.wait_for pid)))
  in
  all_exited outcome;
  check_str "handler reset" "default" (Ksim.Kernel.console t)

(* ------------------------------------------------------------------ *)
(* vfork *)

let test_vfork_shares_memory () =
  let t, outcome =
    boot ~programs:[ true_prog ] (fun _ ->
        let addr = ok (Ksim.Api.mmap ~len:page ~perm:Vmem.Perm.rw) in
        ok (Ksim.Api.mem_write ~addr "1");
        let pid =
          ok
            (Ksim.Api.vfork ~child:(fun () ->
                 (* writes land in the parent's address space *)
                 ok (Ksim.Api.mem_write ~addr "2");
                 Ksim.Api.exit 0))
        in
        ignore (ok (Ksim.Api.wait_for pid));
        Ksim.Api.print ("parent-sees:" ^ ok (Ksim.Api.mem_read ~addr ~len:1)))
  in
  all_exited outcome;
  check_str "vfork child scribbled on parent" "parent-sees:2"
    (Ksim.Kernel.console t)

let test_vfork_blocks_parent () =
  let t, outcome =
    boot ~programs:[ echo_prog ] (fun _ ->
        let pid =
          ok
            (Ksim.Api.vfork ~child:(fun () ->
                 Ksim.Api.print "child-first;";
                 (match Ksim.Api.exec ~argv:[ "execed;" ] "/bin/echo" with
                 | Ok () | Error _ -> ());
                 Ksim.Api.exit 1))
        in
        Ksim.Api.print "parent-after-exec;";
        ignore (ok (Ksim.Api.wait_for pid)))
  in
  all_exited outcome;
  (* the parent resumed only after the child exec'd; the exec'd child
     then runs concurrently with the parent *)
  let console = Ksim.Kernel.console t in
  check_bool "child ran before parent resumed" true
    (String.length console >= 12 && String.sub console 0 12 = "child-first;")

(* ------------------------------------------------------------------ *)
(* pipes, SIGPIPE, pipelines *)

let test_pipe_parent_child () =
  let t, outcome =
    boot (fun _ ->
        let rfd, wfd = ok (Ksim.Api.pipe ()) in
        let pid =
          ok
            (Ksim.Api.fork ~child:(fun () ->
                 ok (Ksim.Api.close wfd);
                 let data = ok (Ksim.Api.read_all rfd) in
                 Ksim.Api.print ("got:" ^ data);
                 Ksim.Api.exit 0))
        in
        ok (Ksim.Api.close rfd);
        ok (Ksim.Api.write_all wfd "ping");
        ok (Ksim.Api.close wfd);
        ignore (ok (Ksim.Api.wait_for pid)))
  in
  all_exited outcome;
  check_str "console" "got:ping" (Ksim.Kernel.console t)

let test_pipe_blocking_big_transfer () =
  (* producer writes more than pipe capacity; consumer drains: write-side
     blocking must engage and resolve *)
  let n = 200_000 in
  let t, outcome =
    boot (fun _ ->
        let rfd, wfd = ok (Ksim.Api.pipe ()) in
        let producer =
          ok
            (Ksim.Api.fork ~child:(fun () ->
                 ok (Ksim.Api.close rfd);
                 ok (Ksim.Api.write_all wfd (String.make n 'z'));
                 Ksim.Api.exit 0))
        in
        let consumer =
          ok
            (Ksim.Api.fork ~child:(fun () ->
                 ok (Ksim.Api.close wfd);
                 let data = ok (Ksim.Api.read_all rfd) in
                 Ksim.Api.print (string_of_int (String.length data));
                 Ksim.Api.exit 0))
        in
        ok (Ksim.Api.close rfd);
        ok (Ksim.Api.close wfd);
        ignore (ok (Ksim.Api.wait_for producer));
        ignore (ok (Ksim.Api.wait_for consumer)))
  in
  all_exited outcome;
  check_str "all bytes crossed" (string_of_int n) (Ksim.Kernel.console t)

let test_sigpipe_kills_writer () =
  let t, outcome =
    boot (fun _ ->
        let pid =
          ok
            (Ksim.Api.fork ~child:(fun () ->
                 let rfd, wfd = ok (Ksim.Api.pipe ()) in
                 ok (Ksim.Api.close rfd);
                 ignore (Ksim.Api.write wfd "doomed");
                 (* unreachable: SIGPIPE terminates us *)
                 Ksim.Api.exit 0))
        in
        match ok (Ksim.Api.wait_for pid) with
        | Ksim.Types.Killed Ksim.Usignal.SIGPIPE -> Ksim.Api.print "sigpipe"
        | st -> Ksim.Api.print (Format.asprintf "%a" Ksim.Types.pp_status st))
  in
  all_exited outcome;
  check_str "console" "sigpipe" (Ksim.Kernel.console t)

let test_sigpipe_ignored_gives_epipe () =
  let t, outcome =
    boot (fun _ ->
        ignore
          (ok (Ksim.Api.sigaction Ksim.Usignal.SIGPIPE Ksim.Usignal.Ignored));
        let rfd, wfd = ok (Ksim.Api.pipe ()) in
        ok (Ksim.Api.close rfd);
        match Ksim.Api.write wfd "doomed" with
        | Error Ksim.Errno.EPIPE -> Ksim.Api.print "epipe"
        | Error _ | Ok _ -> Ksim.Api.print "unexpected")
  in
  all_exited outcome;
  check_str "console" "epipe" (Ksim.Kernel.console t)

(* ------------------------------------------------------------------ *)
(* wait semantics *)

let test_waitpid_echild () =
  let t, outcome =
    boot (fun _ ->
        match Ksim.Api.waitpid Ksim.Types.Any_child with
        | Error Ksim.Errno.ECHILD -> Ksim.Api.print "echild"
        | Error _ | Ok _ -> Ksim.Api.print "unexpected")
  in
  all_exited outcome;
  check_str "console" "echild" (Ksim.Kernel.console t)

let test_wait_all () =
  let t, outcome =
    boot (fun _ ->
        for i = 1 to 3 do
          ignore (ok (Ksim.Api.fork ~child:(fun () -> Ksim.Api.exit i)))
        done;
        let reaped = Ksim.Api.wait_all () in
        let codes =
          List.map
            (function _, Ksim.Types.Exited c -> c | _, Ksim.Types.Killed _ -> -1)
            reaped
          |> List.sort compare
        in
        Ksim.Api.print
          (String.concat "," (List.map string_of_int codes)))
  in
  all_exited outcome;
  check_str "console" "1,2,3" (Ksim.Kernel.console t)

let test_orphan_reparented () =
  (* a grandchild orphaned by its parent's exit is reparented to init *)
  let t, outcome =
    boot (fun _ ->
        let mid =
          ok
            (Ksim.Api.fork ~child:(fun () ->
                 ignore
                   (ok
                      (Ksim.Api.fork ~child:(fun () ->
                           Ksim.Api.yield ();
                           Ksim.Api.yield ();
                           Ksim.Api.exit 5)));
                 Ksim.Api.exit 0))
        in
        ignore (ok (Ksim.Api.wait_for mid));
        (* the grandchild is now init's child *)
        match Ksim.Api.waitpid Ksim.Types.Any_child with
        | Ok (_, Ksim.Types.Exited 5) -> Ksim.Api.print "adopted"
        | _ -> Ksim.Api.print "unexpected")
  in
  all_exited outcome;
  check_str "console" "adopted" (Ksim.Kernel.console t)

(* ------------------------------------------------------------------ *)
(* signals *)

let test_kill_default_terminates () =
  let t, outcome =
    boot (fun _ ->
        let rfd, _wfd = ok (Ksim.Api.pipe ()) in
        let pid =
          ok
            (Ksim.Api.fork ~child:(fun () ->
                 ignore (Ksim.Api.read rfd 1);
                 Ksim.Api.exit 0))
        in
        Ksim.Api.yield ();
        ok (Ksim.Api.kill pid Ksim.Usignal.SIGTERM);
        match ok (Ksim.Api.wait_for pid) with
        | Ksim.Types.Killed Ksim.Usignal.SIGTERM -> Ksim.Api.print "terminated"
        | st -> Ksim.Api.print (Format.asprintf "%a" Ksim.Types.pp_status st))
  in
  all_exited outcome;
  check_str "console" "terminated" (Ksim.Kernel.console t)

let test_handler_counts () =
  let t, outcome =
    boot (fun _ ->
        ignore
          (ok (Ksim.Api.sigaction Ksim.Usignal.SIGUSR2 (Ksim.Usignal.Handler "u2")));
        let me = Ksim.Api.getpid () in
        ok (Ksim.Api.kill me Ksim.Usignal.SIGUSR2);
        ok (Ksim.Api.kill me Ksim.Usignal.SIGUSR2);
        Ksim.Api.print (string_of_int (Ksim.Api.handled_signals "u2")))
  in
  all_exited outcome;
  check_str "console" "2" (Ksim.Kernel.console t)

let test_sigkill_uncatchable () =
  let t, outcome =
    boot (fun _ ->
        match Ksim.Api.sigaction Ksim.Usignal.SIGKILL Ksim.Usignal.Ignored with
        | Error Ksim.Errno.EINVAL -> Ksim.Api.print "einval"
        | Error _ | Ok _ -> Ksim.Api.print "unexpected")
  in
  all_exited outcome;
  check_str "console" "einval" (Ksim.Kernel.console t)

let test_alarm_fires_in_blocked_read () =
  let t, outcome =
    boot (fun _ ->
        let rfd, _wfd = ok (Ksim.Api.pipe ()) in
        ignore (Ksim.Api.alarm 5);
        ignore (Ksim.Api.read rfd 1);
        (* unreachable: SIGALRM default-terminates *)
        Ksim.Api.print "survived")
  in
  all_exited outcome;
  check_str "no survival print" "" (Ksim.Kernel.console t);
  match Ksim.Kernel.status_of t 1 with
  | Some (Ksim.Types.Killed Ksim.Usignal.SIGALRM) -> ()
  | _ -> Alcotest.fail "expected SIGALRM death"

let test_alarm_not_inherited () =
  let t, outcome =
    boot (fun _ ->
        ignore (Ksim.Api.alarm 1000);
        let pid =
          ok
            (Ksim.Api.fork ~child:(fun () ->
                 Ksim.Api.print
                   (string_of_int (Ksim.Api.alarm 0) (* remaining: 0 *));
                 Ksim.Api.exit 0))
        in
        ignore (ok (Ksim.Api.wait_for pid));
        ignore (Ksim.Api.alarm 0))
  in
  all_exited outcome;
  check_str "child has no alarm" "0" (Ksim.Kernel.console t)

(* ------------------------------------------------------------------ *)
(* cwd *)

let test_chdir_inherited () =
  let t, outcome =
    boot (fun _ ->
        ok (Ksim.Api.chdir "/tmp");
        let pid =
          ok
            (Ksim.Api.fork ~child:(fun () ->
                 Ksim.Api.print (Ksim.Api.getcwd () ^ ";");
                 (* relative path resolves against the inherited cwd *)
                 (match
                    Ksim.Api.openf ~flags:Ksim.Types.o_wronly "here.txt"
                  with
                 | Ok fd -> ignore (Ksim.Api.write fd "x") |> fun () ->
                   ignore (Ksim.Api.close fd)
                 | Error _ -> Ksim.Api.print "open-failed");
                 Ksim.Api.exit 0))
        in
        ignore (ok (Ksim.Api.wait_for pid)))
  in
  all_exited outcome;
  check_str "child cwd" "/tmp;" (Ksim.Kernel.console t);
  check_bool "file in /tmp" true
    (Ksim.Vfs.file_exists (Ksim.Kernel.vfs t) ~cwd:"/" "/tmp/here.txt")

let test_chdir_errors () =
  let t, outcome =
    boot (fun _ ->
        (match Ksim.Api.chdir "/nope" with
        | Error Ksim.Errno.ENOENT -> Ksim.Api.print "enoent;"
        | Error _ | Ok () -> Ksim.Api.print "bad;");
        ignore (ok (Ksim.Api.openf ~flags:Ksim.Types.o_wronly "/tmp/f"));
        match Ksim.Api.chdir "/tmp/f" with
        | Error Ksim.Errno.ENOTDIR -> Ksim.Api.print "enotdir"
        | Error _ | Ok () -> Ksim.Api.print "bad")
  in
  all_exited outcome;
  check_str "console" "enoent;enotdir" (Ksim.Kernel.console t)

(* ------------------------------------------------------------------ *)
(* more edge semantics *)

let test_vfork_child_exit_without_exec () =
  (* the parent's address space must survive the borrow *)
  let t, outcome =
    boot (fun _ ->
        let addr = ok (Ksim.Api.mmap ~len:page ~perm:Vmem.Perm.rw) in
        ok (Ksim.Api.mem_write ~addr "A");
        let pid = ok (Ksim.Api.vfork ~child:(fun () -> Ksim.Api.exit 9)) in
        (match ok (Ksim.Api.wait_for pid) with
        | Ksim.Types.Exited 9 -> ()
        | _ -> Ksim.Api.print "bad-status;");
        Ksim.Api.print (ok (Ksim.Api.mem_read ~addr ~len:1)))
  in
  all_exited outcome;
  check_str "memory intact" "A" (Ksim.Kernel.console t)

let test_exec_from_secondary_thread () =
  (* exec from a non-main thread destroys the siblings, including main *)
  let t, outcome =
    boot ~programs:[ echo_prog ] (fun _ ->
        let pid =
          ok
            (Ksim.Api.fork ~child:(fun () ->
                 ignore
                   (ok
                      (Ksim.Api.thread_create (fun () ->
                           match Ksim.Api.exec ~argv:[ "from-thread" ] "/bin/echo" with
                           | Ok () | Error _ -> ())));
                 (* main thread of the child: spin politely; exec should
                    annihilate us *)
                 for _ = 1 to 50 do Ksim.Api.yield () done;
                 Ksim.Api.print "main-survived!"))
        in
        ignore (ok (Ksim.Api.wait_for pid)))
  in
  all_exited outcome;
  check_str "only the exec'd image ran" "from-thread" (Ksim.Kernel.console t)

let test_spawn_attr_reset_signals () =
  let reporter =
    prog "/bin/disposition-reporter" (fun _ ->
        match Ksim.Api.sigaction Ksim.Usignal.SIGUSR1 Ksim.Usignal.Default with
        | Ok Ksim.Usignal.Default -> Ksim.Api.exit 0
        | Ok Ksim.Usignal.Ignored -> Ksim.Api.exit 1
        | Ok (Ksim.Usignal.Handler _) -> Ksim.Api.exit 2
        | Error _ -> Ksim.Api.exit 3)
  in
  let t, outcome =
    boot ~programs:[ reporter ] (fun _ ->
        ignore (ok (Ksim.Api.sigaction Ksim.Usignal.SIGUSR1 Ksim.Usignal.Ignored));
        (* default spawn: Ignored inherits (exec semantics) *)
        let p1 = ok (Ksim.Api.spawn "/bin/disposition-reporter") in
        (match ok (Ksim.Api.wait_for p1) with
        | Ksim.Types.Exited 1 -> Ksim.Api.print "inherited;"
        | st -> Ksim.Api.print (Format.asprintf "%a;" Ksim.Types.pp_status st));
        (* reset_signals wipes it back to Default *)
        let p2 =
          ok
            (Ksim.Api.spawn
               ~attr:{ Ksim.Types.default_attr with Ksim.Types.reset_signals = true }
               "/bin/disposition-reporter")
        in
        match ok (Ksim.Api.wait_for p2) with
        | Ksim.Types.Exited 0 -> Ksim.Api.print "reset"
        | st -> Ksim.Api.print (Format.asprintf "%a" Ksim.Types.pp_status st))
  in
  all_exited outcome;
  check_str "console" "inherited;reset" (Ksim.Kernel.console t)

let test_spawn_attr_mask () =
  let checker =
    prog "/bin/mask-checker" (fun _ ->
        let mask = Ksim.Api.sigprocmask Ksim.Types.Block Ksim.Usignal.Set.empty in
        if Ksim.Usignal.Set.mem Ksim.Usignal.SIGUSR2 mask then Ksim.Api.exit 0
        else Ksim.Api.exit 1)
  in
  let t, outcome =
    boot ~programs:[ checker ] (fun _ ->
        let attr =
          { Ksim.Types.default_attr with
            Ksim.Types.mask =
              Some (Ksim.Usignal.Set.of_list [ Ksim.Usignal.SIGUSR2 ]) }
        in
        let pid = ok (Ksim.Api.spawn ~attr "/bin/mask-checker") in
        match ok (Ksim.Api.wait_for pid) with
        | Ksim.Types.Exited 0 -> Ksim.Api.print "masked"
        | st -> Ksim.Api.print (Format.asprintf "%a" Ksim.Types.pp_status st))
  in
  all_exited outcome;
  check_str "console" "masked" (Ksim.Kernel.console t)

let test_fd_errors () =
  let t, outcome =
    boot (fun _ ->
        (match Ksim.Api.dup 99 with
        | Error Ksim.Errno.EBADF -> Ksim.Api.print "dup-ebadf;"
        | Error _ | Ok _ -> Ksim.Api.print "bad;");
        (match Ksim.Api.kill 4242 Ksim.Usignal.SIGTERM with
        | Error Ksim.Errno.ESRCH -> Ksim.Api.print "kill-esrch;"
        | Error _ | Ok () -> Ksim.Api.print "bad;");
        let fd = ok (Ksim.Api.openf ~flags:Ksim.Types.o_wronly "/tmp/wo") in
        match Ksim.Api.read fd 1 with
        | Error Ksim.Errno.EBADF -> Ksim.Api.print "read-wo-ebadf"
        | Error _ | Ok _ -> Ksim.Api.print "bad")
  in
  all_exited outcome;
  check_str "console" "dup-ebadf;kill-esrch;read-wo-ebadf" (Ksim.Kernel.console t)

let test_alarm_remaining () =
  let t, outcome =
    boot (fun _ ->
        ignore (Ksim.Api.alarm 1000);
        Ksim.Api.yield ();
        let remaining = Ksim.Api.alarm 0 in
        Ksim.Api.print
          (if remaining > 0 && remaining <= 1000 then "ok" else "bad"))
  in
  all_exited outcome;
  check_str "console" "ok" (Ksim.Kernel.console t)

let test_mutex_trylock () =
  let t, outcome =
    boot (fun _ ->
        let m = Ksim.Api.mutex_create () in
        ok (Ksim.Api.mutex_lock m);
        ignore
          (ok
             (Ksim.Api.thread_create (fun () ->
                  match Ksim.Api.mutex_trylock m with
                  | Error Ksim.Errno.EAGAIN -> Ksim.Api.print "eagain"
                  | Error _ | Ok () -> Ksim.Api.print "bad")));
        Ksim.Api.yield ();
        ok (Ksim.Api.mutex_unlock m))
  in
  all_exited outcome;
  check_str "console" "eagain" (Ksim.Kernel.console t)

(* ------------------------------------------------------------------ *)
(* threads + mutexes: the fork deadlock *)

let test_mutex_threads () =
  let t, outcome =
    boot (fun _ ->
        let m = Ksim.Api.mutex_create () in
        ok (Ksim.Api.mutex_lock m);
        ignore
          (ok
             (Ksim.Api.thread_create (fun () ->
                  (* blocks until main unlocks *)
                  ok (Ksim.Api.mutex_lock m);
                  Ksim.Api.print "thread-got-lock;";
                  ok (Ksim.Api.mutex_unlock m))));
        Ksim.Api.yield ();
        Ksim.Api.print "main-unlocking;";
        ok (Ksim.Api.mutex_unlock m);
        Ksim.Api.yield ();
        Ksim.Api.yield ())
  in
  all_exited outcome;
  check_str "ordering" "main-unlocking;thread-got-lock;" (Ksim.Kernel.console t)

let test_mutex_relock_edeadlk () =
  let t, outcome =
    boot (fun _ ->
        let m = Ksim.Api.mutex_create () in
        ok (Ksim.Api.mutex_lock m);
        match Ksim.Api.mutex_lock m with
        | Error Ksim.Errno.EDEADLK -> Ksim.Api.print "edeadlk"
        | Error _ | Ok () -> Ksim.Api.print "unexpected")
  in
  all_exited outcome;
  check_str "console" "edeadlk" (Ksim.Kernel.console t)

let test_fork_mutex_deadlock () =
  (* the paper's thread-safety argument, end to end: another thread holds
     a lock at fork time; the child's first lock attempt hangs forever *)
  let _, outcome =
    boot (fun _ ->
        let m = Ksim.Api.mutex_create () in
        let rfd, _wfd = ok (Ksim.Api.pipe ()) in
        ignore
          (ok
             (Ksim.Api.thread_create (fun () ->
                  ok (Ksim.Api.mutex_lock m);
                  (* hold the lock and block forever, like a thread mid
                     malloc on another CPU *)
                  ignore (Ksim.Api.read rfd 1))));
        Ksim.Api.yield ();
        (* the helper thread now holds m *)
        ignore
          (ok
             (Ksim.Api.fork ~child:(fun () ->
                  (* inherited mutex memory says "locked by tid N", but
                     tid N does not exist here: deadlock *)
                  ok (Ksim.Api.mutex_lock m);
                  Ksim.Api.exit 0)));
        Ksim.Api.exit 0)
  in
  match outcome with
  | Ksim.Kernel.Stalled stalls ->
    check_bool "stalled on the inherited mutex" true
      (List.exists
         (fun s ->
           String.length s.Ksim.Kernel.why >= 10
           && String.sub s.Ksim.Kernel.why 0 10 = "mutex_lock")
         stalls)
  | o -> Alcotest.failf "expected stall, got %a" Ksim.Kernel.pp_outcome o

(* Every syscall that can park, parked where nothing will wake it: the
   stall report names each wait, in park order. A new thread is queued
   ahead of init, so the threads park in creation order (the writer's
   second write parks before the thread made after it runs), and the
   vfork child's read parks after init's waitpid. *)
let test_every_stall_reason () =
  let _, outcome =
    boot (fun _ ->
        let r, _w = ok (Ksim.Api.pipe ()) in
        let _r2, w2 = ok (Ksim.Api.pipe ()) in
        let srv = ok (Ksim.Api.socket ()) in
        ok (Ksim.Api.bind srv ~port:80);
        ok (Ksim.Api.listen srv ~backlog:1);
        let m = Ksim.Api.mutex_create () in
        ok (Ksim.Api.mutex_lock m);
        let spawn_thread body = ignore (ok (Ksim.Api.thread_create body)) in
        spawn_thread (fun () -> ignore (Ksim.Api.read r 1));
        spawn_thread (fun () ->
            (* the first write fills the pipe, the second parks *)
            let chunk = String.make 65536 'x' in
            while true do
              ignore (Ksim.Api.write w2 chunk)
            done);
        spawn_thread (fun () -> ignore (Ksim.Api.accept srv));
        spawn_thread (fun () -> ignore (Ksim.Api.mutex_lock m));
        spawn_thread (fun () ->
            ignore (Ksim.Api.poll [ Ksim.Types.pollin r ]));
        spawn_thread (fun () ->
            ignore
              (Ksim.Api.vfork ~child:(fun () -> ignore (Ksim.Api.read r 1))));
        ignore (Ksim.Api.waitpid Ksim.Types.Any_child))
  in
  check_str "stall report"
    "stalled(pid1/tid2:read(fd=3), pid1/tid3:write(fd=6), \
     pid1/tid4:accept(fd=7), pid1/tid5:mutex_lock(0), pid1/tid6:poll(n=1), \
     pid1/tid7:vfork, pid1/tid1:waitpid, pid2/tid8:read(fd=3))"
    (Format.asprintf "%a" Ksim.Kernel.pp_outcome outcome)

(* ------------------------------------------------------------------ *)
(* pthread_atfork *)

let test_atfork_ordering () =
  let t, outcome =
    boot (fun _ ->
        Ksim.Api.atfork
          ~prepare:(fun () -> Ksim.Api.print "prepA;")
          ~in_parent:(fun () -> Ksim.Api.print "parA;")
          ~in_child:(fun () -> Ksim.Api.print "childA;")
          ();
        Ksim.Api.atfork
          ~prepare:(fun () -> Ksim.Api.print "prepB;")
          ~in_parent:(fun () -> Ksim.Api.print "parB;")
          ~in_child:(fun () -> Ksim.Api.print "childB;")
          ();
        let pid = ok (Ksim.Api.fork ~child:(fun () -> Ksim.Api.exit 0)) in
        ignore (ok (Ksim.Api.wait_for pid)))
  in
  all_exited outcome;
  (* prepare LIFO before everything; then the parent's FIFO and the
     child's FIFO sequences interleave (two processes run concurrently),
     so assert each process's subsequence rather than a global order *)
  let console = Ksim.Kernel.console t in
  let events = String.split_on_char ';' console in
  let subsequence needle =
    let rec go needle events =
      match (needle, events) with
      | [], _ -> true
      | _, [] -> false
      | n :: ns, e :: es -> if n = e then go ns es else go needle es
    in
    go needle events
  in
  check_bool "prepare is LIFO and first" true
    (String.length console >= 12 && String.sub console 0 12 = "prepB;prepA;");
  check_bool "parent handlers FIFO" true (subsequence [ "parA"; "parB" ]);
  check_bool "child handlers FIFO" true (subsequence [ "childA"; "childB" ])

let test_atfork_fixes_simple_deadlock () =
  (* same scenario as the fork-deadlock test, but with the textbook
     atfork mitigation: serialize fork against the lock *)
  let t, outcome =
    boot (fun _ ->
        let m = Ksim.Api.mutex_create () in
        Ksim.Api.atfork
          ~prepare:(fun () -> ok (Ksim.Api.mutex_lock m))
          ~in_parent:(fun () -> ok (Ksim.Api.mutex_unlock m))
            (* the child cannot unlock a lock owned by the parent's tid;
               like glibc's handlers it re-initializes instead *)
          ~in_child:(fun () -> ok (Ksim.Api.mutex_reinit m))
          ();
        ignore
          (ok
             (Ksim.Api.thread_create (fun () ->
                  for _ = 1 to 3 do
                    ok (Ksim.Api.mutex_lock m);
                    Ksim.Api.yield ();
                    ok (Ksim.Api.mutex_unlock m);
                    Ksim.Api.yield ()
                  done)));
        Ksim.Api.yield ();
        (* the worker may hold m right now; prepare waits for it *)
        let pid =
          ok
            (Ksim.Api.fork ~child:(fun () ->
                 ok (Ksim.Api.mutex_lock m);
                 ok (Ksim.Api.mutex_unlock m);
                 Ksim.Api.print "child-locked-fine;";
                 Ksim.Api.exit 0))
        in
        ignore (ok (Ksim.Api.wait_for pid)))
  in
  all_exited outcome;
  check_str "no deadlock" "child-locked-fine;" (Ksim.Kernel.console t)

let test_atfork_cure_blocks_fork_itself () =
  (* the paper's counterpoint: if any thread holds the lock indefinitely,
     the atfork prepare handler just moves the hang into fork() *)
  let _, outcome =
    boot (fun _ ->
        let m = Ksim.Api.mutex_create () in
        let r, _w = ok (Ksim.Api.pipe ()) in
        Ksim.Api.atfork ~prepare:(fun () -> ok (Ksim.Api.mutex_lock m)) ();
        ignore
          (ok
             (Ksim.Api.thread_create (fun () ->
                  ok (Ksim.Api.mutex_lock m);
                  ignore (Ksim.Api.read r 1))));
        Ksim.Api.yield ();
        ignore (Ksim.Api.fork ~child:(fun () -> Ksim.Api.exit 0));
        Ksim.Api.exit 0)
  in
  match outcome with
  | Ksim.Kernel.Stalled stalls ->
    check_bool "the parent hangs in prepare" true
      (List.exists
         (fun s ->
           String.length s.Ksim.Kernel.why >= 10
           && String.sub s.Ksim.Kernel.why 0 10 = "mutex_lock")
         stalls)
  | o -> Alcotest.failf "expected stall, got %a" Ksim.Kernel.pp_outcome o

let test_atfork_cleared_by_exec () =
  let forker =
    prog "/bin/forker" (fun _ ->
        (* handlers registered pre-exec must be gone here *)
        let pid = ok (Ksim.Api.fork ~child:(fun () -> Ksim.Api.exit 0)) in
        ignore (ok (Ksim.Api.wait_for pid));
        Ksim.Api.exit 0)
  in
  let t, outcome =
    boot ~programs:[ forker ] (fun _ ->
        Ksim.Api.atfork ~prepare:(fun () -> Ksim.Api.print "LEAKED;") ();
        let pid =
          ok
            (Ksim.Api.fork ~child:(fun () ->
                 (match Ksim.Api.exec "/bin/forker" with Ok () | Error _ -> ());
                 Ksim.Api.exit 1))
        in
        ignore (ok (Ksim.Api.wait_for pid)))
  in
  all_exited outcome;
  (* the outer fork legitimately ran the handler once; the exec'd image's
     fork must not *)
  check_str "one prepare only" "LEAKED;" (Ksim.Kernel.console t)

let test_atfork_inherited_by_fork_child () =
  let t, outcome =
    boot (fun _ ->
        Ksim.Api.atfork ~prepare:(fun () -> Ksim.Api.print "P;") ();
        let pid =
          ok
            (Ksim.Api.fork ~child:(fun () ->
                 (* grandchild creation must run the inherited handler *)
                 let gpid = ok (Ksim.Api.fork ~child:(fun () -> Ksim.Api.exit 0)) in
                 ignore (ok (Ksim.Api.wait_for gpid));
                 Ksim.Api.exit 0))
        in
        ignore (ok (Ksim.Api.wait_for pid)))
  in
  all_exited outcome;
  check_str "ran in parent and in child" "P;P;" (Ksim.Kernel.console t)

(* ------------------------------------------------------------------ *)
(* file locks *)

let test_file_lock_not_inherited () =
  let t, outcome =
    boot (fun _ ->
        let fd = ok (Ksim.Api.openf ~flags:Ksim.Types.o_wronly "/tmp/lockf") in
        ok (Ksim.Api.try_lock fd);
        let pid =
          ok
            (Ksim.Api.fork ~child:(fun () ->
                 (* same fd (inherited), but the LOCK is per-process *)
                 match Ksim.Api.try_lock fd with
                 | Error Ksim.Errno.EAGAIN -> Ksim.Api.exit 42
                 | Error _ | Ok () -> Ksim.Api.exit 1))
        in
        (match ok (Ksim.Api.wait_for pid) with
        | Ksim.Types.Exited 42 -> Ksim.Api.print "lock-not-inherited;"
        | _ -> Ksim.Api.print "unexpected;");
        (* lock released when the owner exits: re-lock from a new child *)
        ok (Ksim.Api.unlock fd);
        let pid2 =
          ok
            (Ksim.Api.fork ~child:(fun () ->
                 match Ksim.Api.try_lock fd with
                 | Ok () -> Ksim.Api.exit 0
                 | Error _ -> Ksim.Api.exit 1))
        in
        match ok (Ksim.Api.wait_for pid2) with
        | Ksim.Types.Exited 0 -> Ksim.Api.print "relockable"
        | _ -> Ksim.Api.print "unexpected")
  in
  all_exited outcome;
  check_str "console" "lock-not-inherited;relockable" (Ksim.Kernel.console t)

(* ------------------------------------------------------------------ *)
(* stdio double flush (E4 mechanism) *)

let test_stdio_double_flush_fork () =
  let t, outcome =
    boot (fun _ ->
        let f = ok (Ksim.Stdio.fopen 1) in
        ok (Ksim.Stdio.puts f "once!");
        (* unflushed bytes sit in (simulated) user memory; fork copies them *)
        let pid =
          ok
            (Ksim.Api.fork ~child:(fun () ->
                 ok (Ksim.Stdio.flush f);
                 Ksim.Api.exit 0))
        in
        ignore (ok (Ksim.Api.wait_for pid));
        ok (Ksim.Stdio.flush f))
  in
  all_exited outcome;
  check_str "duplicated output" "once!once!" (Ksim.Kernel.console t)

let test_stdio_no_duplication_with_spawn () =
  let t, outcome =
    boot ~programs:[ true_prog ] (fun _ ->
        let f = ok (Ksim.Stdio.fopen 1) in
        ok (Ksim.Stdio.puts f "once!");
        let pid = ok (Ksim.Api.spawn "/bin/true") in
        ignore (ok (Ksim.Api.wait_for pid));
        ok (Ksim.Stdio.flush f))
  in
  all_exited outcome;
  check_str "single output" "once!" (Ksim.Kernel.console t)

(* ------------------------------------------------------------------ *)
(* memory syscalls *)

let test_brk_and_heap () =
  let t, outcome =
    boot (fun _ ->
        let old = ok (Ksim.Api.sbrk (4 * page)) in
        ok (Ksim.Api.mem_write ~addr:old "heap");
        Ksim.Api.print (ok (Ksim.Api.mem_read ~addr:old ~len:4)))
  in
  all_exited outcome;
  check_str "console" "heap" (Ksim.Kernel.console t)

let test_touch_counts_pages () =
  let t, outcome =
    boot (fun _ ->
        let addr = ok (Ksim.Api.mmap ~len:(10 * page) ~perm:Vmem.Perm.rw) in
        Ksim.Api.print
          (string_of_int (ok (Ksim.Api.touch ~addr ~len:(10 * page)))))
  in
  all_exited outcome;
  check_str "console" "10" (Ksim.Kernel.console t)

let test_stack_guard_page () =
  (* with ASLR off the layout is fixed: the guard page sits directly
     below the 1 MiB stack under 0x7FFF_F000_0000 *)
  let config = { Ksim.Kernel.default_config with Ksim.Kernel.aslr = false } in
  let t, outcome =
    boot ~config (fun _ ->
        let stack_base = 0x7FFF_F000_0000 - (1 lsl 20) in
        (* the stack itself is writable... *)
        (match Ksim.Api.mem_write ~addr:stack_base "x" with
        | Ok () -> Ksim.Api.print "stack-ok;"
        | Error _ -> Ksim.Api.print "stack-broken;");
        (* ...the page below it faults *)
        match Ksim.Api.mem_write ~addr:(stack_base - 1) "x" with
        | Error Ksim.Errno.EACCES -> Ksim.Api.print "guard-faults"
        | Error e -> Ksim.Api.print (Ksim.Errno.to_string e)
        | Ok () -> Ksim.Api.print "guard-writable!")
  in
  all_exited outcome;
  check_str "console" "stack-ok;guard-faults" (Ksim.Kernel.console t)

let test_segfault_efault () =
  let t, outcome =
    boot (fun _ ->
        match Ksim.Api.mem_read ~addr:0xdead000 ~len:1 with
        | Error Ksim.Errno.EFAULT -> Ksim.Api.print "efault"
        | Error _ | Ok _ -> Ksim.Api.print "unexpected")
  in
  all_exited outcome;
  check_str "console" "efault" (Ksim.Kernel.console t)

(* A read of an unmapped range fails at its first page, before its
   result is allocated: a 256 MiB read of nothing costs the host no
   256 MiB buffer. *)
let test_mem_read_efault_allocates_nothing () =
  let words = ref infinity in
  let _, outcome =
    boot (fun _ ->
        let before = Gc.allocated_bytes () in
        let r = Ksim.Api.mem_read ~addr:0xdead000 ~len:(256 * 1024 * 1024) in
        words :=
          (Gc.allocated_bytes () -. before) /. float_of_int (Sys.word_size / 8);
        expect_errno Ksim.Errno.EFAULT r)
  in
  all_exited outcome;
  check_bool "under 1M host words" true (!words < 1e6)

(* Under the Demand policy a first touch that cannot be backed kills a
   victim and retries the touch. A forked child warms 38 of the 48
   frames and parks; a lazy-image worker then touches its 16 data pages
   with readahead 3. Requests at pages 0 and 4 pull 4 pages each; the
   one at page 8 gets 2 frames, so its readahead stops at page 10; the
   one at page 10 fails on its faulting page. The child is the only
   victim (init and the faulter never are), and its 38 frames let the
   retried touch hit pages 0-9 and pull 10-13 and 14-15. *)
let test_demand_oom_kill_through_lazy_touch () =
  let data_pages = 16 and warm_pages = 38 in
  let worker =
    prog ~text_kib:4 ~data_kib:(data_pages * 4) "/worker" (fun _ ->
        match
          Ksim.Api.touch ~addr:(Ksim.Kernel.image_base + page)
            ~len:(data_pages * page)
        with
        | Ok n -> Ksim.Api.print (Printf.sprintf "touched:%d;" n)
        | Error e -> Ksim.Api.print (Ksim.Errno.to_string e))
  in
  let config =
    {
      Ksim.Kernel.default_config with
      Ksim.Kernel.phys_pages = 48;
      commit_policy = Vmem.Frame.Demand;
      demand_paging = true;
      pager_readahead = 3;
      aslr = false;
    }
  in
  let t, outcome =
    boot ~config ~programs:[ worker ] (fun _ ->
        let ready_r, ready_w = ok (Ksim.Api.pipe ()) in
        let park_r, _park_w = ok (Ksim.Api.pipe ()) in
        let warm =
          ok
            (Ksim.Api.fork ~child:(fun () ->
                 let len = warm_pages * page in
                 let addr = ok (Ksim.Api.mmap ~len ~perm:Vmem.Perm.rw) in
                 ignore (ok (Ksim.Api.touch ~addr ~len));
                 ok (Ksim.Api.write_all ready_w "R");
                 ignore (Ksim.Api.read park_r 1)))
        in
        ignore (ok (Ksim.Api.read ready_r 1));
        let w = ok (Ksim.Api.spawn "/worker") in
        let show pid =
          Format.asprintf "%a;" Ksim.Types.pp_status (ok (Ksim.Api.wait_for pid))
        in
        let st = show w in
        Ksim.Api.print (st ^ show warm))
  in
  all_exited outcome;
  check_str "console"
    (Format.asprintf "touched:16;%a;%a;" Ksim.Types.pp_status
       (Ksim.Types.Exited 0) Ksim.Types.pp_status
       (Ksim.Types.Killed Ksim.Usignal.SIGKILL))
    (Ksim.Kernel.console t);
  let g = Ksim.Kstat.global (Ksim.Kernel.kstat t) in
  check_int "one OOM kill" 1 g.Ksim.Kstat.oom_kills;
  check_int "major faults: 3, the failed one, 2" 6 g.Ksim.Kstat.major_faults;
  check_int "every data page fetched once" data_pages g.Ksim.Kstat.pages_fetched;
  check_int "readahead hits: 3 + 3 + 1, then 3 + 1" 11
    g.Ksim.Kstat.readahead_hits;
  check_int "no frame leak" 0 (Vmem.Frame.used (Ksim.Kernel.frames t));
  check_int "no commit leak" 0 (Vmem.Frame.committed (Ksim.Kernel.frames t))

(* ------------------------------------------------------------------ *)
(* ASLR: layout inheritance (E5 mechanism) *)

let mmap_report_prog =
  prog "/bin/mmap-report" (fun _ ->
      let addr = ok (Ksim.Api.mmap ~len:page ~perm:Vmem.Perm.rw) in
      Ksim.Api.print (Printf.sprintf "%x;" addr);
      Ksim.Api.exit 0)

let split_console t =
  String.split_on_char ';' (Ksim.Kernel.console t)
  |> List.filter (fun s -> s <> "")

let test_aslr_spawn_randomizes () =
  let t, outcome =
    boot ~programs:[ mmap_report_prog ] (fun _ ->
        for _ = 1 to 2 do
          let pid = ok (Ksim.Api.spawn "/bin/mmap-report") in
          ignore (ok (Ksim.Api.wait_for pid))
        done)
  in
  all_exited outcome;
  match split_console t with
  | [ a; b ] -> check_bool "spawned layouts differ" true (a <> b)
  | l -> Alcotest.failf "expected 2 reports, got %d" (List.length l)

let test_fork_inherits_layout () =
  let t, outcome =
    boot (fun _ ->
        (* both children map their next page at the same inherited spot *)
        for _ = 1 to 2 do
          let pid =
            ok
              (Ksim.Api.fork ~child:(fun () ->
                   let addr = ok (Ksim.Api.mmap ~len:page ~perm:Vmem.Perm.rw) in
                   Ksim.Api.print (Printf.sprintf "%x;" addr);
                   Ksim.Api.exit 0))
          in
          ignore (ok (Ksim.Api.wait_for pid))
        done)
  in
  all_exited outcome;
  match split_console t with
  | [ a; b ] -> check_str "forked layouts identical" a b
  | l -> Alcotest.failf "expected 2 reports, got %d" (List.length l)

(* ------------------------------------------------------------------ *)
(* scheduler *)

let test_deterministic_replay () =
  let run () =
    let t, outcome =
      boot (fun _ ->
          for i = 1 to 3 do
            ignore
              (ok
                 (Ksim.Api.fork ~child:(fun () ->
                      Ksim.Api.print (Printf.sprintf "c%d;" i);
                      Ksim.Api.exit 0)))
          done;
          ignore (Ksim.Api.wait_all ()))
    in
    all_exited outcome;
    Ksim.Kernel.console t
  in
  check_str "same seed, same run" (run ()) (run ())

let test_random_sched_completes () =
  let config =
    { Ksim.Kernel.default_config with Ksim.Kernel.sched = `Random; seed = 7 }
  in
  let t, outcome =
    boot ~config (fun _ ->
        for i = 1 to 3 do
          ignore
            (ok
               (Ksim.Api.fork ~child:(fun () ->
                    Ksim.Api.print (Printf.sprintf "c%d;" i);
                    Ksim.Api.exit 0)))
        done;
        ignore (Ksim.Api.wait_all ()))
  in
  all_exited outcome;
  check_int "all children ran" 3 (List.length (split_console t))

let test_tick_limit () =
  let init = prog "/sbin/init" (fun _ -> while true do Ksim.Api.yield () done) in
  let t = Ksim.Kernel.create () in
  Ksim.Kernel.register t init;
  ignore (ok (Ksim.Kernel.spawn_init t "/sbin/init"));
  match Ksim.Kernel.run ~max_ticks:500 t with
  | Ksim.Kernel.Tick_limit -> ()
  | o -> Alcotest.failf "expected tick limit, got %a" Ksim.Kernel.pp_outcome o

let test_trace_records_syscalls () =
  let config =
    { Ksim.Kernel.default_config with Ksim.Kernel.trace_capacity = Some 128 }
  in
  let t, outcome =
    boot ~config (fun _ ->
        let pid = ok (Ksim.Api.fork ~child:(fun () -> Ksim.Api.exit 3)) in
        ignore (ok (Ksim.Api.wait_for pid)))
  in
  all_exited outcome;
  match Ksim.Kernel.trace t with
  | None -> Alcotest.fail "trace missing"
  | Some tr ->
    check_bool "fork traced" true (Ksim.Trace.find tr ~pattern:"fork" <> []);
    check_bool "waitpid traced" true (Ksim.Trace.find tr ~pattern:"waitpid" <> [])

(* After overflow the ring must hold exactly the last [capacity] events,
   oldest first, with consecutive sequence numbers. *)
let test_trace_wraparound () =
  let capacity = 8 and total = 20 in
  let tr = Ksim.Trace.create ~capacity () in
  for i = 0 to total - 1 do
    Ksim.Trace.record tr ~tick:i ~pid:1 ~tid:1 (Printf.sprintf "ev%d" i)
  done;
  check_int "total" total (Ksim.Trace.total tr);
  let evs = Ksim.Trace.events tr in
  check_int "kept" capacity (List.length evs);
  List.iteri
    (fun i (e : Ksim.Trace.event) ->
      let expected = total - capacity + i in
      check_int (Printf.sprintf "seq %d" i) expected e.Ksim.Trace.seq;
      check_str
        (Printf.sprintf "what %d" i)
        (Printf.sprintf "ev%d" expected)
        e.Ksim.Trace.what)
    evs

let traced_config =
  { Ksim.Kernel.default_config with Ksim.Kernel.trace_capacity = Some 4096 }

let events_of t =
  match Ksim.Kernel.trace t with
  | None -> Alcotest.fail "trace missing"
  | Some tr -> Ksim.Trace.events tr

let test_trace_spans () =
  let t, outcome =
    boot ~config:traced_config (fun _ ->
        let pid = ok (Ksim.Api.fork ~child:(fun () -> Ksim.Api.exit 3)) in
        ignore (ok (Ksim.Api.wait_for pid)))
  in
  all_exited outcome;
  let evs = events_of t in
  let of_phase ph what =
    List.filter
      (fun (e : Ksim.Trace.event) ->
        e.Ksim.Trace.phase = ph && e.Ksim.Trace.what = what)
      evs
  in
  let fork_b = of_phase Ksim.Trace.Begin "fork" in
  let fork_e = of_phase Ksim.Trace.End "fork" in
  check_int "one fork begin" 1 (List.length fork_b);
  check_int "one fork end" 1 (List.length fork_e);
  let b = List.hd fork_b and e = List.hd fork_e in
  check_bool "end after begin" true (e.Ksim.Trace.seq > b.Ksim.Trace.seq);
  check_bool "fork ok" true (e.Ksim.Trace.outcome = Some Ksim.Trace.Ok_result);
  check_bool "span positive" true (e.Ksim.Trace.span_ns > 0.0);
  check_bool "time advances" true (e.Ksim.Trace.ts_ns >= b.Ksim.Trace.ts_ns);
  (* the detail is repeated on the End event so name-based filters see it *)
  check_bool "end keeps args" true
    (b.Ksim.Trace.detail = Ksim.Trace.D_fork { live_threads = 1 }
    && e.Ksim.Trace.detail = b.Ksim.Trace.detail);
  (* a blocking syscall still gets its End on completion *)
  let wait_e = of_phase Ksim.Trace.End "waitpid" in
  check_int "one waitpid end" 1 (List.length wait_e);
  check_bool "waitpid ok" true
    ((List.hd wait_e).Ksim.Trace.outcome = Some Ksim.Trace.Ok_result)

let test_trace_span_errno () =
  let t, outcome =
    boot ~config:traced_config (fun _ ->
        (match Ksim.Api.exec "/bin/does-not-exist" with
        | Ok () -> Alcotest.fail "exec of missing program succeeded"
        | Error e -> check_bool "enoent" true (e = Ksim.Errno.ENOENT));
        Ksim.Api.exit 0)
  in
  all_exited outcome;
  let failed_exec =
    List.filter
      (fun (e : Ksim.Trace.event) ->
        e.Ksim.Trace.phase = Ksim.Trace.End
        && e.Ksim.Trace.what = "execve"
        && e.Ksim.Trace.outcome = Some (Ksim.Trace.Err Ksim.Errno.ENOENT))
      (events_of t)
  in
  check_int "failed exec span" 1 (List.length failed_exec)

let test_trace_exporters () =
  let t, outcome =
    boot ~config:traced_config (fun _ ->
        let pid = ok (Ksim.Api.fork ~child:(fun () -> Ksim.Api.exit 0)) in
        ignore (ok (Ksim.Api.wait_for pid)))
  in
  all_exited outcome;
  let tr = Option.get (Ksim.Kernel.trace t) in
  (* JSONL: every line is a standalone JSON object *)
  let lines =
    String.split_on_char '\n' (Ksim.Trace.to_jsonl tr)
    |> List.filter (fun l -> l <> "")
  in
  check_int "one line per event" (List.length (Ksim.Trace.events tr))
    (List.length lines);
  List.iter
    (fun l ->
      match Metrics.Json.of_string l with
      | Error e -> Alcotest.fail ("jsonl line: " ^ e)
      | Ok j -> check_bool "has name" true (Metrics.Json.member "what" j <> None))
    lines;
  (* Chrome: a traceEvents array whose phases are B/E/i, plus the "M"
     metadata events that label pid/tid lanes for the viewer *)
  match Metrics.Json.of_string (Metrics.Json.to_string (Ksim.Trace.to_chrome tr)) with
  | Error e -> Alcotest.fail ("chrome parse: " ^ e)
  | Ok doc -> (
    match
      Option.bind (Metrics.Json.member "traceEvents" doc) Metrics.Json.to_list
    with
    | None | Some [] -> Alcotest.fail "no traceEvents"
    | Some evs ->
      List.iter
        (fun ev ->
          match
            Option.bind (Metrics.Json.member "ph" ev) Metrics.Json.to_str
          with
          | Some ("B" | "E" | "i" | "M") -> ()
          | other ->
            Alcotest.failf "bad phase %s"
              (Option.value ~default:"<none>" other))
        evs;
      check_bool "has lane metadata" true
        (List.exists
           (fun ev ->
             Option.bind (Metrics.Json.member "ph" ev) Metrics.Json.to_str
             = Some "M")
           evs))

(* Each annotation a syscall carries reaches each exporter exactly once:
   no JSON object repeats a key, and every key of an event's typed
   detail and injections appears once in that event's JSON. The run
   covers every detail constructor and one injected reply. *)
let test_trace_annotations_once () =
  let spec =
    {
      Ksim.Fault.seed = 1;
      triggers =
        [
          Ksim.Fault.Syscall_nth
            { kind = "close"; nth = 1; errno = Ksim.Errno.EINTR };
        ];
    }
  in
  let config = { traced_config with Ksim.Kernel.fault = Some spec } in
  let t, outcome =
    boot ~config ~programs:[ true_prog ] (fun _ ->
        let tpl = ok (Ksim.Api.freeze ()) in
        let z =
          ok
            (Ksim.Api.spawn_from_template tpl ~child:(fun () ->
                 Ksim.Api.exit 0))
        in
        ignore (ok (Ksim.Api.wait_for z));
        (* init froze itself, so it still holds the template: EBUSY *)
        ignore (Ksim.Api.template_discard tpl);
        let pid =
          ok
            (Ksim.Api.fork ~child:(fun () ->
                 ignore (Ksim.Api.exec "/bin/true");
                 Ksim.Api.exit 1))
        in
        ignore (ok (Ksim.Api.wait_for pid));
        let fd = ok (Ksim.Api.openf ~flags:Ksim.Types.o_wronly "/tmp/once") in
        (match Ksim.Api.close fd with
        | Error Ksim.Errno.EINTR -> ()
        | Ok () | Error _ -> Alcotest.fail "close was not injected");
        let m = Ksim.Api.mutex_create () in
        ok (Ksim.Api.mutex_lock m);
        ok (Ksim.Api.mutex_unlock m);
        let srv = ok (Ksim.Api.socket ()) in
        ok (Ksim.Api.bind srv ~port:7100);
        ok (Ksim.Api.listen srv ~backlog:4);
        let cli = ok (Ksim.Api.socket ()) in
        ok (Ksim.Api.connect cli ~port:7100);
        ignore (ok (Ksim.Api.poll ~timeout:0 [ Ksim.Types.pollin srv ]));
        Ksim.Api.exit 0)
  in
  all_exited outcome;
  let tr = Option.get (Ksim.Kernel.trace t) in
  let evs = Ksim.Trace.events tr in
  let detail_keys (e : Ksim.Trace.event) =
    match e.Ksim.Trace.detail with
    | Ksim.Trace.D_none -> []
    | Ksim.Trace.D_fork _ -> [ "live_threads" ]
    | Ksim.Trace.D_exec _ -> [ "inherited_fds" ]
    | Ksim.Trace.D_exit _ -> [ "open_fds" ]
    | Ksim.Trace.D_open _ -> [ "path"; "cloexec" ]
    | Ksim.Trace.D_child _ -> [ "child"; "style" ]
    | Ksim.Trace.D_tpl _ -> [ "tpl" ]
    | Ksim.Trace.D_mutex _ -> [ "mutex" ]
    | Ksim.Trace.D_port _ -> [ "port" ]
    | Ksim.Trace.D_listen _ -> [ "backlog" ]
    | Ksim.Trace.D_poll _ -> [ "nfds"; "timeout" ]
  in
  let annotation_keys (e : Ksim.Trace.event) =
    detail_keys e
    @
    match e.Ksim.Trace.injected.Ksim.Trace.reply with
    | Some _ -> [ "injected" ]
    | None -> []
  in
  (* the run reached every detail constructor and the injection *)
  List.iter
    (fun key ->
      check_bool ("traced " ^ key) true
        (List.exists (fun e -> List.mem key (annotation_keys e)) evs))
    [
      "live_threads"; "inherited_fds"; "open_fds"; "path"; "child"; "tpl";
      "mutex"; "port"; "backlog"; "nfds"; "injected";
    ];
  (* every key of every object in [j], failing on an object that
     repeats one *)
  let rec keys (j : Metrics.Json.t) =
    match j with
    | Metrics.Json.Obj fields ->
      let own = List.map fst fields in
      check_int "no repeated key" (List.length own)
        (List.length (List.sort_uniq compare own));
      own @ List.concat_map (fun (_, v) -> keys v) fields
    | Metrics.Json.Arr items -> List.concat_map keys items
    | Metrics.Json.Null | Metrics.Json.Bool _ | Metrics.Json.Int _
    | Metrics.Json.Num _ | Metrics.Json.Str _ ->
      []
  in
  let once (e : Ksim.Trace.event) j =
    let all = keys j in
    List.iter
      (fun key ->
        check_int
          (Printf.sprintf "%s %s once" e.Ksim.Trace.what key)
          1
          (List.length (List.filter (String.equal key) all)))
      (annotation_keys e)
  in
  let lines =
    String.split_on_char '\n' (Ksim.Trace.to_jsonl tr)
    |> List.filter (fun l -> l <> "")
  in
  check_int "one line per event" (List.length evs) (List.length lines);
  List.iter2
    (fun e l ->
      match Metrics.Json.of_string l with
      | Error msg -> Alcotest.fail ("jsonl line: " ^ msg)
      | Ok j -> once e j)
    evs lines;
  let chrome = Ksim.Trace.to_chrome tr in
  ignore (keys chrome);
  let spans =
    match
      Option.bind
        (Metrics.Json.member "traceEvents" chrome)
        Metrics.Json.to_list
    with
    | None -> Alcotest.fail "no traceEvents"
    | Some all ->
      List.filter
        (fun ev ->
          Option.bind (Metrics.Json.member "ph" ev) Metrics.Json.to_str
          <> Some "M")
        all
  in
  check_int "one chrome event per event" (List.length evs) (List.length spans);
  List.iter2 once evs spans

(* ------------------------------------------------------------------ *)
(* Kstat counters *)

let counter cs k =
  Option.value ~default:0 (List.assoc_opt k (Ksim.Kstat.snapshot cs))

let test_kstat_counters () =
  let pages = 16 in
  let t, outcome =
    boot (fun _ ->
        let addr = ok (Ksim.Api.mmap ~len:(pages * page) ~perm:Vmem.Perm.rw) in
        ignore (ok (Ksim.Api.touch ~addr ~len:(pages * page)));
        let pid =
          ok
            (Ksim.Api.fork ~child:(fun () ->
                 ignore (ok (Ksim.Api.touch ~addr ~len:(pages * page)));
                 Ksim.Api.exit 0))
        in
        ignore (ok (Ksim.Api.wait_for pid)))
  in
  all_exited outcome;
  let g = Ksim.Kstat.global (Ksim.Kernel.kstat t) in
  check_int "forks" 1 (counter g "forks");
  (* the child re-touches every inherited page: one COW break each *)
  check_int "cow breaks" pages (counter g "cow-breaks");
  check_bool "faults counted" true (counter g "faults" >= pages);
  check_bool "ptes copied" true (counter g "ptes-copied" >= pages);
  check_bool "cycles attributed" true
    (Vmem.Cost.total g.Ksim.Kstat.by_cost > 0.0);
  check_bool "fork kind" true
    (List.assoc_opt "fork" (Ksim.Kstat.kinds g) = Some 1);
  (* snapshot totals match the per-kind sum *)
  check_int "syscalls = sum of kinds"
    (List.fold_left (fun a (_, n) -> a + n) 0 (Ksim.Kstat.kinds g))
    (counter g "syscalls")

let test_kstat_per_pid () =
  let pages = 8 in
  let child_pid = ref (-1) in
  let t, outcome =
    boot (fun _ ->
        let addr = ok (Ksim.Api.mmap ~len:(pages * page) ~perm:Vmem.Perm.rw) in
        ignore (ok (Ksim.Api.touch ~addr ~len:(pages * page)));
        let pid =
          ok
            (Ksim.Api.fork ~child:(fun () ->
                 ignore (ok (Ksim.Api.touch ~addr ~len:(pages * page)));
                 Ksim.Api.exit 0))
        in
        child_pid := pid;
        ignore (ok (Ksim.Api.wait_for pid)))
  in
  all_exited outcome;
  let ks = Ksim.Kernel.kstat t in
  match Ksim.Kstat.pid_counters ks !child_pid with
  | None -> Alcotest.fail "no counters for child pid"
  | Some child ->
    (* the COW breaks happened while the child was running *)
    check_int "child cow breaks" pages (counter child "cow-breaks");
    let parent = Option.get (Ksim.Kstat.pid_counters ks 1) in
    check_int "parent cow breaks" 0 (counter parent "cow-breaks");
    check_bool "parent zero-fills" true (counter parent "frames-zeroed" >= pages);
    (* a pid's record counts its syscalls, but only the global record
       counts them by kind *)
    check_int "child syscalls" 2 (counter child "syscalls");
    check_bool "a pid's record has no kinds" true (Ksim.Kstat.kinds child = [])

(* A charge through the kernel's observer chain (the meter, Kstat's
   global and per-pid ledgers, the blame bucket the context picked)
   allocates nothing. Minor words repeat exactly for a fixed program, so
   the bound can be this tight. *)
let test_kstat_charge_allocates_nothing () =
  let t = Ksim.Kernel.create () in
  let cost = Ksim.Kernel.cost t and blame = Ksim.Kernel.blame t in
  let kstat = Ksim.Kernel.kstat t in
  Ksim.Kstat.set_current kstat (Some 7);
  let id = Vmem.Blame.new_event blame ~style:"fork" ~parent:7 in
  let cycles = (Vmem.Cost.params cost).Vmem.Cost.fault_base in
  let words =
    Vmem.Blame.with_context blame ~id Vmem.Blame.Deferred (fun () ->
        (* the first charge allocates pid 7's counters *)
        Vmem.Cost.tally cost Fault_cow_reuse;
        let before = Gc.minor_words () in
        for _ = 1 to 10_000 do
          Vmem.Cost.charge cost Fault_base cycles;
          Vmem.Cost.tally cost Fault_cow_reuse
        done;
        Gc.minor_words () -. before)
  in
  check_bool
    (Printf.sprintf "%.0f minor words for 20000 charges" words)
    true (words <= 20_000.0);
  let pid = Option.get (Ksim.Kstat.pid_counters kstat 7) in
  check_int "per-pid faults" 10_000 pid.Ksim.Kstat.faults;
  check_int "per-pid reuses" 10_001 pid.Ksim.Kstat.cow_reuses;
  let ev = Option.get (Vmem.Blame.find blame id) in
  check_int "blamed faults" 10_000
    (Vmem.Cost.count ev.Vmem.Blame.deferred Fault_base)

(* One request of every [Sysreq.t] constructor, in declaration order. *)
type any_req = Req : 'a Ksim.Sysreq.t -> any_req

let every_request =
  let body () = () and fd = 3 and pid = 2 in
  let open Ksim.Sysreq in
  [
    Req Getpid; Req Getppid; Req Gettid; Req (Fork body);
    Req (Fork_eager body); Req (Vfork body);
    Req
      (Spawn
         {
           Ksim.Types.path = "/bin/true";
           argv = [];
           file_actions = [];
           attr = Ksim.Types.default_attr;
         });
    Req (Exec { path = "/bin/true"; argv = [] }); Req (Exit 0);
    Req (Waitpid Ksim.Types.Any_child); Req (Kill (pid, Ksim.Usignal.SIGTERM));
    Req (Sigaction (Ksim.Usignal.SIGTERM, Ksim.Usignal.Default));
    Req (Sigprocmask (Ksim.Types.Block, Ksim.Usignal.Set.empty)); Req (Alarm 1);
    Req (Open ("/tmp/f", Ksim.Types.o_rdwr)); Req (Close fd); Req (Read (fd, 1));
    Req (Write (fd, "x")); Req (Dup fd); Req (Dup2 { src = fd; dst = 4 });
    Req (Set_cloexec (fd, true)); Req Pipe; Req (Try_lock fd); Req (Unlock fd);
    Req (Mmap { len = page; perm = Vmem.Perm.rw });
    Req (Munmap { addr = 0; len = page }); Req (Brk None);
    Req (Mem_read { addr = 0; len = 1 }); Req (Mem_write { addr = 0; data = "x" });
    Req (Touch { addr = 0; len = page }); Req (Thread_create body);
    Req Mutex_create; Req (Mutex_lock 0); Req (Mutex_unlock 0);
    Req (Mutex_trylock 0); Req (Mutex_reinit 0); Req Yield;
    Req (Handled_signals "h"); Req (Chdir "/"); Req Getcwd;
    Req
      (Atfork_register
         { Ksim.Types.prepare = None; in_parent = None; in_child = None });
    Req Atfork_list; Req Pb_create;
    Req (Pb_map { pid; len = page; perm = Vmem.Perm.rw });
    Req (Pb_write { pid; addr = 0; data = "x" });
    Req (Pb_copy_fd { pid; src = fd; dst = fd });
    Req (Pb_start { pid; path = "/bin/true"; argv = [] });
    Req (Stdio_flushed { bytes = 1; inherited = 0 });
    Req (Template_freeze { pid = None }); Req (Template_spawn { tpl = 0; body });
    Req (Template_discard 0); Req Socket; Req (Bind (fd, 80));
    Req (Listen { fd; backlog = 1 }); Req (Accept fd); Req (Connect (fd, 80));
    Req (Poll { interests = []; timeout = 0 });
  ]

(* Kstat counts a kind at its descriptor's [idx]: one slot per
   constructor, each below the kind count, so no two kinds share a
   count. *)
let test_sysreq_kind_slots () =
  let slots =
    List.map (fun (Req r) -> (Ksim.Sysreq.info r).Ksim.Sysreq.idx) every_request
  in
  check_int "one request per kind" Ksim.Sysreq.nkinds (List.length slots);
  List.iteri
    (fun i idx ->
      check_bool (Printf.sprintf "request %d: idx %d in range" i idx) true
        (idx >= 0 && idx < Ksim.Sysreq.nkinds))
    slots;
  check_int "distinct slots" Ksim.Sysreq.nkinds
    (List.length (List.sort_uniq compare slots));
  check_int "distinct names" Ksim.Sysreq.nkinds
    (List.length
       (List.sort_uniq compare
          (List.map (fun (Req r) -> (Ksim.Sysreq.info r).Ksim.Sysreq.name) every_request)))

let test_kstat_stdio_double_flush () =
  let buffered = 512 in
  let run use_spawn =
    let t, outcome =
      boot ~programs:[ true_prog ] (fun _ ->
          let f = ok (Ksim.Stdio.fopen ~bufsize:4096 1) in
          ok (Ksim.Stdio.puts f (String.make buffered 'x'));
          let pid =
            if use_spawn then ok (Ksim.Api.spawn "/bin/true")
            else
              ok
                (Ksim.Api.fork ~child:(fun () ->
                     ok (Ksim.Stdio.flush f);
                     Ksim.Api.exit 0))
          in
          ignore (ok (Ksim.Api.wait_for pid));
          ok (Ksim.Stdio.flush f))
    in
    all_exited outcome;
    Ksim.Kstat.global (Ksim.Kernel.kstat t)
  in
  let forked = run false in
  check_int "fork double-flushes the buffer" buffered
    (counter forked "stdio-double-flushed-bytes");
  check_bool "flushed bytes counted" true
    (counter forked "stdio-flushed-bytes" >= 2 * buffered);
  let spawned = run true in
  check_int "spawn does not" 0 (counter spawned "stdio-double-flushed-bytes")

(* ------------------------------------------------------------------ *)
(* fork cost scales in-sim; spawn cost does not (F1-SIM mechanism) *)

let creation_cycles ~use_spawn ~heap_pages =
  let t, outcome =
    boot ~programs:[ true_prog ]
      ~config:
        { Ksim.Kernel.default_config with
          Ksim.Kernel.phys_pages = 1 lsl 20;
          commit_policy = Vmem.Frame.Overcommit }
      (fun _ ->
        let addr = ok (Ksim.Api.mmap ~len:(heap_pages * page) ~perm:Vmem.Perm.rw) in
        ignore (ok (Ksim.Api.touch ~addr ~len:(heap_pages * page)))
        ;
        let pid =
          if use_spawn then ok (Ksim.Api.spawn "/bin/true")
          else
            ok (Ksim.Api.fork ~child:(fun () -> Ksim.Api.exit 0))
        in
        ignore (ok (Ksim.Api.wait_for pid)))
  in
  ignore outcome;
  Vmem.Cost.get (Ksim.Kernel.cost t) Fork_pte

let test_fork_cost_scales_spawn_does_not () =
  let fork_small = creation_cycles ~use_spawn:false ~heap_pages:64 in
  let fork_big = creation_cycles ~use_spawn:false ~heap_pages:8192 in
  let spawn_small = creation_cycles ~use_spawn:true ~heap_pages:64 in
  let spawn_big = creation_cycles ~use_spawn:true ~heap_pages:8192 in
  check_bool "fork PTE work grows" true (fork_big > fork_small *. 10.0);
  check_bool "spawn does no PTE copying" true
    (spawn_small = 0.0 && spawn_big = 0.0)

(* ------------------------------------------------------------------ *)
(* zygote templates *)

let test_zygote_lifecycle () =
  let t, outcome =
    boot (fun _ ->
        let addr = ok (Ksim.Api.mmap ~len:(8 * page) ~perm:Vmem.Perm.rw) in
        ok (Ksim.Api.mem_write ~addr "Z");
        ignore (ok (Ksim.Api.touch ~addr ~len:(8 * page)));
        let tpl = ok (Ksim.Api.freeze ()) in
        (* the source still maps the pinned pages: discard refuses *)
        expect_errno Ksim.Errno.EBUSY (Ksim.Api.template_discard tpl);
        let spawn_reader tag =
          ok
            (Ksim.Api.spawn_from_template tpl ~child:(fun () ->
                 Ksim.Api.print
                   (tag ^ "-sees:" ^ ok (Ksim.Api.mem_read ~addr ~len:1) ^ ";");
                 ok (Ksim.Api.mem_write ~addr "C");
                 Ksim.Api.print
                   (tag ^ "-now:" ^ ok (Ksim.Api.mem_read ~addr ~len:1) ^ ";");
                 Ksim.Api.exit 0))
        in
        let a = spawn_reader "a" in
        ignore (ok (Ksim.Api.wait_for a));
        (* the first child's private write never reaches the template:
           a second child still reads the frozen byte *)
        let b = spawn_reader "b" in
        ignore (ok (Ksim.Api.wait_for b));
        Ksim.Api.print ("source:" ^ ok (Ksim.Api.mem_read ~addr ~len:1)))
  in
  all_exited outcome;
  check_str "console" "a-sees:Z;a-now:C;b-sees:Z;b-now:C;source:Z"
    (Ksim.Kernel.console t);
  let g = Ksim.Kstat.global (Ksim.Kernel.kstat t) in
  check_int "one freeze" 1 (counter g "tpl-freezes");
  check_int "two zygote spawns" 2 (counter g "tpl-spawns");
  check_bool "pages shared without per-page work" true
    (counter g "tpl-pages-shared" >= 16);
  match Ksim.Kernel.templates t with
  | [ tpl ] ->
    check_int "spawn count" 2 tpl.Ksim.Template.spawns;
    check_int "no live deps after exit" 0 tpl.Ksim.Template.live_deps;
    (* everything except the pinned template pages was returned *)
    check_int "used = template resident" tpl.Ksim.Template.resident
      (Vmem.Frame.used (Ksim.Kernel.frames t));
    check_int "pinned = resident" tpl.Ksim.Template.resident
      (Vmem.Frame.pinned (Ksim.Kernel.frames t));
    check_int "no commit leak" 0 (Vmem.Frame.committed (Ksim.Kernel.frames t))
  | l -> Alcotest.failf "expected one template, got %d" (List.length l)

(* Freeze a warmed (spawned, hence sole-owner) worker from its parent,
   spawn from the template while it lives, and discard once every
   dependent — source, then zygote child — is gone. *)
let test_zygote_discard_lifecycle () =
  let warm =
    prog "/warm" (fun argv ->
        match argv with
        | [ ready_w; release_r ] ->
          let addr = ok (Ksim.Api.mmap ~len:(4 * page) ~perm:Vmem.Perm.rw) in
          ignore (ok (Ksim.Api.touch ~addr ~len:(4 * page)));
          ok (Ksim.Api.write_all (int_of_string ready_w) "R");
          ignore (ok (Ksim.Api.read (int_of_string release_r) 1));
          Ksim.Api.exit 0
        | _ -> Ksim.Api.exit 1)
  in
  let tref = ref None in
  let init =
    prog "/sbin/init" (fun _ ->
        let t = Option.get !tref in
        let frames = Ksim.Kernel.frames t in
        let ready_r, ready_w = ok (Ksim.Api.pipe ()) in
        let release_r, release_w = ok (Ksim.Api.pipe ()) in
        let gate_r, gate_w = ok (Ksim.Api.pipe ()) in
        let worker =
          ok
            (Ksim.Api.fork ~child:(fun () ->
                 match
                   Ksim.Api.exec
                     ~argv:
                       [ string_of_int ready_w; string_of_int release_r ]
                     "/warm"
                 with
                 | Ok () | Error _ -> Ksim.Api.exit 127))
        in
        ignore (ok (Ksim.Api.read ready_r 1));
        (* post-exec the worker owns a fresh image: freezable *)
        let tpl = ok (Ksim.Api.freeze ~pid:worker ()) in
        check_bool "pages pinned" true (Vmem.Frame.pinned frames > 0);
        let child =
          ok
            (Ksim.Api.spawn_from_template tpl ~child:(fun () ->
                 ignore (Ksim.Api.read gate_r 1);
                 Ksim.Api.exit 0))
        in
        (* source and zygote child both alive *)
        expect_errno Ksim.Errno.EBUSY (Ksim.Api.template_discard tpl);
        ok (Ksim.Api.write_all release_w "G");
        ignore (ok (Ksim.Api.wait_for worker));
        (* source gone, child still maps template pages *)
        expect_errno Ksim.Errno.EBUSY (Ksim.Api.template_discard tpl);
        ok (Ksim.Api.write_all gate_w "G");
        ignore (ok (Ksim.Api.wait_for child));
        ok (Ksim.Api.template_discard tpl);
        check_int "unpinned on discard" 0 (Vmem.Frame.pinned frames);
        (* the id is dead now *)
        expect_errno Ksim.Errno.EINVAL
          (Ksim.Api.spawn_from_template tpl ~child:(fun () -> Ksim.Api.exit 0));
        expect_errno Ksim.Errno.EINVAL (Ksim.Api.template_discard tpl))
  in
  let t = Ksim.Kernel.create () in
  Ksim.Kernel.register_all t [ init; warm ];
  tref := Some t;
  (match Ksim.Kernel.spawn_init t "/sbin/init" with
  | Ok _ -> ()
  | Error e -> Alcotest.failf "spawn_init failed: %s" (Ksim.Errno.to_string e));
  let outcome = Ksim.Kernel.run t in
  all_exited outcome;
  check_int "templates all gone" 0 (List.length (Ksim.Kernel.templates t));
  check_int "no frame leak" 0 (Vmem.Frame.used (Ksim.Kernel.frames t));
  check_int "no commit leak" 0 (Vmem.Frame.committed (Ksim.Kernel.frames t))

let test_zygote_errors () =
  let t, outcome =
    boot (fun _ ->
        expect_errno Ksim.Errno.ESRCH (Ksim.Api.freeze ~pid:999 ());
        (* only a child of the caller may be frozen by pid *)
        expect_errno Ksim.Errno.EPERM (Ksim.Api.freeze ~pid:(Ksim.Api.getpid ()) ());
        expect_errno Ksim.Errno.EINVAL
          (Ksim.Api.spawn_from_template 42 ~child:(fun () -> Ksim.Api.exit 0));
        expect_errno Ksim.Errno.EINVAL (Ksim.Api.template_discard 42);
        (* a fork child still COW-shares its image with us: pinning its
           frames would steal pages the parent counts on *)
        let rfd, wfd = ok (Ksim.Api.pipe ()) in
        let pid =
          ok
            (Ksim.Api.fork ~child:(fun () ->
                 ignore (Ksim.Api.read rfd 1);
                 Ksim.Api.exit 0))
        in
        expect_errno Ksim.Errno.EBUSY (Ksim.Api.freeze ~pid ());
        ok (Ksim.Api.write_all wfd "x");
        ignore (ok (Ksim.Api.wait_for pid));
        (* a vfork child borrows its parent's address space: not its to
           seal *)
        let pid =
          ok
            (Ksim.Api.vfork ~child:(fun () ->
                 expect_errno Ksim.Errno.EINVAL (Ksim.Api.freeze ());
                 Ksim.Api.exit 0))
        in
        ignore (ok (Ksim.Api.wait_for pid)))
  in
  all_exited outcome;
  check_int "nothing pinned" 0 (Vmem.Frame.pinned (Ksim.Kernel.frames t));
  check_int "no templates" 0 (List.length (Ksim.Kernel.templates t))

(* Freeze refuses while another table maps any resident page, whichever
   pages a write has made private since the fork; a shared leaf that
   maps no present page does not count. *)
let test_zygote_freeze_sharing () =
  let t, outcome =
    boot (fun _ ->
        let ready_r, ready_w = ok (Ksim.Api.pipe ()) in
        let go_r, go_w = ok (Ksim.Api.pipe ()) in
        (* a child that runs [first], reports in, and parks until told *)
        let parked_child first =
          let pid =
            ok
              (Ksim.Api.fork ~child:(fun () ->
                   first ();
                   ok (Ksim.Api.write_all ready_w "R");
                   ignore (Ksim.Api.read go_r 1);
                   Ksim.Api.exit 0))
          in
          ignore (ok (Ksim.Api.read ready_r 1));
          pid
        in
        let release pid =
          ok (Ksim.Api.write_all go_w "G");
          ignore (ok (Ksim.Api.wait_for pid))
        in
        let addr = ok (Ksim.Api.mmap ~len:(8 * page) ~perm:Vmem.Perm.rw) in
        ignore (ok (Ksim.Api.touch ~addr ~len:(8 * page)));
        (* a child that has written one page still shares the rest *)
        let pid = parked_child (fun () -> ok (Ksim.Api.mem_write ~addr "w")) in
        expect_errno Ksim.Errno.EBUSY (Ksim.Api.freeze ~pid ());
        (* and so does its parent *)
        expect_errno Ksim.Errno.EBUSY (Ksim.Api.freeze ());
        release pid;
        (* empty at least one whole leaf of a touched 8 MiB mapping: the
           emptied leaf stays allocated, and a fork shares it *)
        let big = ok (Ksim.Api.mmap ~len:(2048 * page) ~perm:Vmem.Perm.rw) in
        ignore (ok (Ksim.Api.touch ~addr:big ~len:(2048 * page)));
        ok (Ksim.Api.munmap ~addr:(big + (512 * page)) ~len:(1024 * page));
        (* the child unmaps every region: each leaf that maps a page is
           privatised on the way, so only the empty leaf stays shared *)
        let pid =
          parked_child (fun () ->
              ok (Ksim.Api.munmap ~addr:0 ~len:Vmem.Addr.max_va))
        in
        ignore (ok (Ksim.Api.freeze ()));
        release pid)
  in
  all_exited outcome;
  check_int "one template" 1 (List.length (Ksim.Kernel.templates t))

(* A zygote spawn refused by strict commit accounting is transactional:
   template counters, frames, commit charges and the pid table are all
   exactly as before. *)
let test_zygote_failed_spawn_rolls_back () =
  let config =
    {
      Ksim.Kernel.default_config with
      Ksim.Kernel.phys_pages = 2048;
      commit_policy = Vmem.Frame.Strict;
      aslr = false;
    }
  in
  let tref = ref None in
  let init =
    prog "/sbin/init" (fun _ ->
        let t = Option.get !tref in
        let frames = Ksim.Kernel.frames t in
        let addr = ok (Ksim.Api.mmap ~len:(1200 * page) ~perm:Vmem.Perm.rw) in
        ok (Ksim.Api.mem_write ~addr "Z");
        ignore (ok (Ksim.Api.touch ~addr ~len:(1200 * page)));
        let tpl = ok (Ksim.Api.freeze ()) in
        let template = Option.get (Ksim.Kernel.find_template t tpl) in
        let used = Vmem.Frame.used frames
        and committed = Vmem.Frame.committed frames
        and pids = List.length (Ksim.Kernel.procs t) in
        expect_errno Ksim.Errno.ENOMEM
          (Ksim.Api.spawn_from_template tpl ~child:(fun () -> Ksim.Api.exit 0));
        check_int "spawns unmoved" 0 template.Ksim.Template.spawns;
        check_int "deps unmoved" 1 template.Ksim.Template.live_deps;
        check_int "used unmoved" used (Vmem.Frame.used frames);
        check_int "commit unmoved" committed (Vmem.Frame.committed frames);
        check_int "no pid created" pids (List.length (Ksim.Kernel.procs t));
        (* releasing the source's copy frees its commit but not the
           pinned template pages: the same spawn now fits, and the
           child still reads the frozen image *)
        ok (Ksim.Api.munmap ~addr ~len:(1200 * page));
        let pid =
          ok
            (Ksim.Api.spawn_from_template tpl ~child:(fun () ->
                 Ksim.Api.print
                   ("sees:" ^ ok (Ksim.Api.mem_read ~addr ~len:1));
                 Ksim.Api.exit 0))
        in
        ignore (ok (Ksim.Api.wait_for pid)))
  in
  let t = Ksim.Kernel.create ~config () in
  Ksim.Kernel.register t init;
  tref := Some t;
  (match Ksim.Kernel.spawn_init t "/sbin/init" with
  | Ok _ -> ()
  | Error e -> Alcotest.failf "spawn_init failed: %s" (Ksim.Errno.to_string e));
  let outcome = Ksim.Kernel.run t in
  all_exited outcome;
  check_str "frozen image survived the source unmap" "sees:Z"
    (Ksim.Kernel.console t)

(* The flat-latency mechanism: the page-table work of a zygote spawn is
   a constant number of shared subtrees, not a function of footprint. *)
let zygote_subtree_cycles ~heap_pages =
  let t, outcome =
    boot
      ~config:
        {
          Ksim.Kernel.default_config with
          Ksim.Kernel.phys_pages = 1 lsl 20;
          commit_policy = Vmem.Frame.Overcommit;
        }
      (fun _ ->
        let addr = ok (Ksim.Api.mmap ~len:(heap_pages * page) ~perm:Vmem.Perm.rw) in
        ignore (ok (Ksim.Api.touch ~addr ~len:(heap_pages * page)));
        let tpl = ok (Ksim.Api.freeze ()) in
        let pid =
          ok (Ksim.Api.spawn_from_template tpl ~child:(fun () -> Ksim.Api.exit 0))
        in
        ignore (ok (Ksim.Api.wait_for pid)))
  in
  all_exited outcome;
  Vmem.Cost.get (Ksim.Kernel.cost t) Zygote_subtree

let test_zygote_cost_flat () =
  let small = zygote_subtree_cycles ~heap_pages:64 in
  let big = zygote_subtree_cycles ~heap_pages:8192 in
  check_bool "charged something" true (small > 0.0);
  check_bool "zygote page-table work independent of footprint" true
    (big <= small *. 1.5)

(* ------------------------------------------------------------------ *)
(* robustness: random programs never crash the kernel, and when
   everything exits, every frame and commit charge is returned *)

type rand_op =
  | Op_mmap_touch of int
  | Op_fork_child
  | Op_spawn_true
  | Op_pipe_roundtrip
  | Op_file_write
  | Op_signal_self
  | Op_brk_grow
  | Op_yield

let gen_op =
  QCheck.Gen.oneof
    [
      QCheck.Gen.map (fun n -> Op_mmap_touch (1 + n)) (QCheck.Gen.int_bound 3);
      QCheck.Gen.return Op_fork_child;
      QCheck.Gen.return Op_spawn_true;
      QCheck.Gen.return Op_pipe_roundtrip;
      QCheck.Gen.return Op_file_write;
      QCheck.Gen.return Op_signal_self;
      QCheck.Gen.return Op_brk_grow;
      QCheck.Gen.return Op_yield;
    ]

let run_op op =
  match op with
  | Op_mmap_touch pages -> (
    match Ksim.Api.mmap ~len:(pages * page) ~perm:Vmem.Perm.rw with
    | Ok addr -> ignore (Ksim.Api.touch ~addr ~len:(pages * page))
    | Error _ -> ())
  | Op_fork_child -> (
    match
      Ksim.Api.fork ~child:(fun () ->
          (match Ksim.Api.mmap ~len:page ~perm:Vmem.Perm.rw with
          | Ok addr -> ignore (Ksim.Api.touch ~addr ~len:page)
          | Error _ -> ());
          Ksim.Api.exit 0)
    with
    | Ok _ | Error _ -> ())
  | Op_spawn_true -> ( match Ksim.Api.spawn "/bin/true" with Ok _ | Error _ -> ())
  | Op_pipe_roundtrip -> (
    match Ksim.Api.pipe () with
    | Error _ -> ()
    | Ok (r, w) ->
      (match Ksim.Api.write w "ping" with Ok _ | Error _ -> ());
      (match Ksim.Api.read r 4 with Ok _ | Error _ -> ());
      (match Ksim.Api.close r with Ok () | Error _ -> ());
      (match Ksim.Api.close w with Ok () | Error _ -> ()))
  | Op_file_write -> (
    match Ksim.Api.openf ~flags:Ksim.Types.o_wronly "/tmp/fuzz" with
    | Error _ -> ()
    | Ok fd ->
      (match Ksim.Api.write fd "data" with Ok _ | Error _ -> ());
      (match Ksim.Api.close fd with Ok () | Error _ -> ()))
  | Op_signal_self ->
    ignore (Ksim.Api.sigaction Ksim.Usignal.SIGUSR1 Ksim.Usignal.Ignored);
    (match Ksim.Api.kill (Ksim.Api.getpid ()) Ksim.Usignal.SIGUSR1 with
    | Ok () | Error _ -> ())
  | Op_brk_grow -> ( match Ksim.Api.sbrk page with Ok _ | Error _ -> ())
  | Op_yield -> Ksim.Api.yield ()

let prop_random_programs =
  QCheck.Test.make ~count:100 ~name:"kernel: random programs run clean"
    (QCheck.make QCheck.Gen.(list_size (0 -- 25) gen_op))
    (fun ops ->
      let init =
        prog "/sbin/init" (fun _ ->
            List.iter run_op ops;
            ignore (Ksim.Api.wait_all ()))
      in
      let true_prog = prog "/bin/true" (fun _ -> Ksim.Api.exit 0) in
      match Ksim.Kernel.boot ~programs:[ init; true_prog ] "/sbin/init" with
      | Error _ -> false
      | Ok (t, outcome) -> (
        match outcome with
        | Ksim.Kernel.All_exited ->
          Vmem.Frame.used (Ksim.Kernel.frames t) = 0
          && Vmem.Frame.committed (Ksim.Kernel.frames t) = 0
        | Ksim.Kernel.Stalled _ | Ksim.Kernel.Tick_limit ->
          (* a random program may legitimately block itself; the property
             is only that the kernel never throws *)
          true))

(* ------------------------------------------------------------------ *)
(* blame ledger: cost attribution back to creation events *)

(* Partition property: every cycle the cost meter records lands in
   exactly one blame bucket (some event's sync, some event's deferred,
   or unattributed), so the ledger's grand totals equal the meter's
   per-category totals — exactly, since all cost parameters are
   integer-valued floats and integer float sums are order-independent. *)
let prop_blame_partition =
  QCheck.Test.make ~count:60 ~name:"blame: buckets partition the cost meter"
    (QCheck.make QCheck.Gen.(list_size (0 -- 20) gen_op))
    (fun ops ->
      let init =
        prog "/sbin/init" (fun _ ->
            List.iter run_op ops;
            ignore (Ksim.Api.wait_all ()))
      in
      let true_prog = prog "/bin/true" (fun _ -> Ksim.Api.exit 0) in
      match Ksim.Kernel.boot ~programs:[ init; true_prog ] "/sbin/init" with
      | Error _ -> false
      | Ok (t, _) ->
        Vmem.Cost.entries (Vmem.Blame.totals (Ksim.Kernel.blame t))
        = Vmem.Cost.entries (Ksim.Kernel.cost t))

(* Deferred charges go to the event that created the sharing being
   broken — the most recent one. Two sequential forks: the parent's
   post-wait writes break the sharing left by the second fork. *)
let test_blame_deferred_to_latest_fork () =
  let pages = 4 in
  let t, outcome =
    boot (fun _ ->
        let addr = ok (Ksim.Api.mmap ~len:(pages * page) ~perm:Vmem.Perm.rw) in
        ignore (ok (Ksim.Api.touch ~addr ~len:(pages * page)));
        let f1 = ok (Ksim.Api.fork ~child:(fun () -> Ksim.Api.exit 0)) in
        ignore (ok (Ksim.Api.wait_for f1));
        let f2 = ok (Ksim.Api.fork ~child:(fun () -> Ksim.Api.exit 0)) in
        ignore (ok (Ksim.Api.wait_for f2));
        ignore (ok (Ksim.Api.touch ~addr ~len:(pages * page)));
        Ksim.Api.exit 0)
  in
  all_exited outcome;
  let blame = Ksim.Kernel.blame t in
  match Vmem.Blame.events blame with
  | [ e1; e2 ] ->
    check_str "both forks" "fork/fork"
      (e1.Vmem.Blame.style ^ "/" ^ e2.Vmem.Blame.style);
    check_bool "sync cost on both" true
      (Vmem.Cost.total e1.Vmem.Blame.sync > 0.0
      && Vmem.Cost.total e2.Vmem.Blame.sync > 0.0);
    (* both children exited untouched: the only COW activity is the
       parent's, and it breaks the sharing of the *second* fork *)
    check_int "first fork: no deferred reuse" 0
      (Vmem.Cost.count e1.Vmem.Blame.deferred Fault_cow_reuse);
    check_int "second fork: all reuse breaks" pages
      (Vmem.Cost.count e2.Vmem.Blame.deferred Fault_cow_reuse);
    check_bool "second fork deferred cycles > 0" true
      (Vmem.Cost.total e2.Vmem.Blame.deferred > 0.0)
  | evs -> Alcotest.failf "expected 2 blame events, got %d" (List.length evs)

(* A child writing to inherited pages is charged back to the fork that
   created the sharing, as real frame copies this time (both sides
   live). *)
let test_blame_child_cow_copies () =
  let pages = 3 in
  let t, outcome =
    boot (fun _ ->
        let addr = ok (Ksim.Api.mmap ~len:(pages * page) ~perm:Vmem.Perm.rw) in
        ignore (ok (Ksim.Api.touch ~addr ~len:(pages * page)));
        let f =
          ok
            (Ksim.Api.fork ~child:(fun () ->
                 ignore (ok (Ksim.Api.touch ~addr ~len:(pages * page)));
                 Ksim.Api.exit 0))
        in
        ignore (ok (Ksim.Api.wait_for f));
        Ksim.Api.exit 0)
  in
  all_exited outcome;
  match Vmem.Blame.events (Ksim.Kernel.blame t) with
  | [ e ] ->
    check_int "copies charged to the fork" pages
      (Vmem.Cost.count e.Vmem.Blame.deferred Fault_cow_copy)
  | evs -> Alcotest.failf "expected 1 blame event, got %d" (List.length evs)

(* Spawn creates no COW sharing: its event carries sync cost only, and
   later writes by either side stay out of the deferred buckets. *)
let test_blame_spawn_has_no_deferred () =
  let t, outcome =
    boot
      ~programs:[ prog "/bin/true" (fun _ -> Ksim.Api.exit 0) ]
      (fun _ ->
        let addr = ok (Ksim.Api.mmap ~len:(2 * page) ~perm:Vmem.Perm.rw) in
        ignore (ok (Ksim.Api.touch ~addr ~len:(2 * page)));
        let p = ok (Ksim.Api.spawn "/bin/true") in
        ignore (ok (Ksim.Api.wait_for p));
        ignore (ok (Ksim.Api.touch ~addr ~len:(2 * page)));
        Ksim.Api.exit 0)
  in
  all_exited outcome;
  match Vmem.Blame.events (Ksim.Kernel.blame t) with
  | [ e ] ->
    check_str "spawn style" "spawn" e.Vmem.Blame.style;
    check_bool "sync cost" true (Vmem.Cost.total e.Vmem.Blame.sync > 0.0);
    Alcotest.(check (float 0.0))
      "no deferred" 0.0
      (Vmem.Cost.total e.Vmem.Blame.deferred)
  | evs -> Alcotest.failf "expected 1 blame event, got %d" (List.length evs)

(* The bookkeeping every creation syscall owes, checked on all six of
   them at once: one ledger row per request in issue order (a failed
   one flagged), and one D_child instant per created process, under the
   style a trace replay attributes the child to. Eager fork replays as
   a plain fork. *)
let test_blame_creation_bookkeeping () =
  let config =
    { Ksim.Kernel.default_config with Ksim.Kernel.trace_capacity = Some 4096 }
  in
  let t, outcome =
    boot ~config
      ~programs:[ prog "/bin/true" (fun _ -> Ksim.Api.exit 0) ]
      (fun _ ->
        let exit0 () = Ksim.Api.exit 0 in
        let wait pid = ignore (ok (Ksim.Api.wait_for pid)) in
        wait (ok (Ksim.Api.fork ~child:exit0));
        wait (ok (Ksim.Api.fork_eager ~child:exit0));
        wait (ok (Ksim.Api.vfork ~child:exit0));
        wait (ok (Ksim.Api.spawn "/bin/true"));
        expect_errno Ksim.Errno.ENOENT (Ksim.Api.spawn "/bin/missing");
        let embryo = ok (Ksim.Api.pb_create ()) in
        ok (Ksim.Api.pb_start ~pid:embryo "/bin/true");
        wait embryo;
        let tpl = ok (Ksim.Api.freeze ()) in
        wait (ok (Ksim.Api.spawn_from_template tpl ~child:exit0));
        exit0 ())
  in
  all_exited outcome;
  let events = Vmem.Blame.events (Ksim.Kernel.blame t) in
  check_str "ledger rows"
    "fork fork_eager vfork spawn spawn(failed) builder freeze zygote"
    (String.concat " "
       (List.map
          (fun (e : Vmem.Blame.event) ->
            if e.Vmem.Blame.failed then e.Vmem.Blame.style ^ "(failed)"
            else e.Vmem.Blame.style)
          events));
  let instants =
    List.filter_map
      (fun (e : Ksim.Trace.event) ->
        match e.Ksim.Trace.detail with
        | Ksim.Trace.D_child { child; style } ->
          Some (e.Ksim.Trace.what ^ "/" ^ style, child)
        | _ -> None)
      (Ksim.Trace.events (Option.get (Ksim.Kernel.trace t)))
  in
  check_str "child instants"
    "fork_child/fork fork_child/fork vfork_child/vfork spawn_child/spawn \
     builder_child/builder zygote_child/zygote"
    (String.concat " " (List.map fst instants));
  Alcotest.(check (list int))
    "instants name the ledger's children"
    (List.filter_map (fun (e : Vmem.Blame.event) -> e.Vmem.Blame.child) events)
    (List.map snd instants)

let qsuite name tests = (name, List.map QCheck_alcotest.to_alcotest tests)
let tc n f = Alcotest.test_case n `Quick f

let () =
  Alcotest.run "ksim"
    [
      ( "usignal",
        [ tc "numbers" test_signal_numbers; tc "sets" test_signal_set ] );
      qsuite "usignal-props" [ prop_sigset_algebra ];
      ("pipe", [ tc "rw" test_pipe_rw; tc "compaction" test_pipe_compaction ]);
      ( "vfs",
        [
          tc "normalize" test_vfs_normalize;
          tc "files" test_vfs_files;
          tc "mkdir" test_vfs_mkdir;
        ] );
      ( "fd-table",
        [
          tc "basic" test_fdt_basic;
          tc "dup2/cloexec" test_fdt_dup2_cloexec;
          tc "clone shares" test_fdt_clone_shares;
        ] );
      qsuite "fd-table-props" [ prop_fdt_model ];
      ("sync", [ tc "clone copies state" test_sync_clone ]);
      ( "trace",
        [
          tc "ring" test_trace_ring;
          tc "wraparound" test_trace_wraparound;
          tc "spans" test_trace_spans;
          tc "span errno" test_trace_span_errno;
          tc "exporters" test_trace_exporters;
          tc "annotations exported once" test_trace_annotations_once;
        ] );
      ( "kstat",
        [
          tc "counters" test_kstat_counters;
          tc "per-pid" test_kstat_per_pid;
          tc "stdio double flush" test_kstat_stdio_double_flush;
          tc "charge allocates nothing" test_kstat_charge_allocates_nothing;
          tc "one slot per syscall kind" test_sysreq_kind_slots;
        ] );
      ( "kernel-basics",
        [
          tc "hello" test_hello;
          tc "natural return" test_natural_return_is_exit0;
          tc "exit code" test_exit_code;
        ] );
      ( "fork",
        [
          tc "cow memory" test_fork_memory_cow;
          tc "pending signals cleared" test_fork_pending_signals_cleared;
          tc "only calling thread" test_fork_only_calling_thread;
          tc "commit limit" test_fork_commit_limit;
        ] );
      ( "exec-spawn",
        [
          tc "exec replaces image" test_exec_replaces_image;
          tc "exec ENOENT is late" test_exec_enoent_late_error;
          tc "spawn ENOENT is sync" test_spawn_enoent_sync_error;
          tc "spawn runs" test_spawn_runs_program;
          tc "spawn file actions" test_spawn_file_actions_redirect;
          tc "spawn dup2 same fd" test_spawn_dup2_same_fd_clears_cloexec;
          tc "cloexec across exec" test_cloexec_across_exec;
          tc "exec resets handlers" test_exec_resets_handlers;
        ] );
      ( "vfork",
        [
          tc "shares memory" test_vfork_shares_memory;
          tc "blocks parent" test_vfork_blocks_parent;
        ] );
      ( "pipes",
        [
          tc "parent-child" test_pipe_parent_child;
          tc "blocking transfer" test_pipe_blocking_big_transfer;
          tc "sigpipe kills" test_sigpipe_kills_writer;
          tc "epipe when ignored" test_sigpipe_ignored_gives_epipe;
        ] );
      ( "wait",
        [
          tc "echild" test_waitpid_echild;
          tc "wait all" test_wait_all;
          tc "orphan reparented" test_orphan_reparented;
        ] );
      ( "signals",
        [
          tc "kill terminates" test_kill_default_terminates;
          tc "handler counts" test_handler_counts;
          tc "sigkill uncatchable" test_sigkill_uncatchable;
          tc "alarm in blocked read" test_alarm_fires_in_blocked_read;
          tc "alarm not inherited" test_alarm_not_inherited;
        ] );
      ( "cwd",
        [
          tc "chdir inherited" test_chdir_inherited;
          tc "chdir errors" test_chdir_errors;
        ] );
      ( "edge-semantics",
        [
          tc "vfork exit without exec" test_vfork_child_exit_without_exec;
          tc "exec from secondary thread" test_exec_from_secondary_thread;
          tc "spawn attr reset signals" test_spawn_attr_reset_signals;
          tc "spawn attr mask" test_spawn_attr_mask;
          tc "fd errors" test_fd_errors;
          tc "alarm remaining" test_alarm_remaining;
          tc "mutex trylock" test_mutex_trylock;
        ] );
      ( "mutex",
        [
          tc "threads" test_mutex_threads;
          tc "relock EDEADLK" test_mutex_relock_edeadlk;
          tc "fork deadlock" test_fork_mutex_deadlock;
          tc "every stall reason" test_every_stall_reason;
        ] );
      ( "atfork",
        [
          tc "ordering" test_atfork_ordering;
          tc "fixes simple deadlock" test_atfork_fixes_simple_deadlock;
          tc "cure blocks fork itself" test_atfork_cure_blocks_fork_itself;
          tc "cleared by exec" test_atfork_cleared_by_exec;
          tc "inherited by fork child" test_atfork_inherited_by_fork_child;
        ] );
      ("locks", [ tc "not inherited by fork" test_file_lock_not_inherited ]);
      ( "stdio",
        [
          tc "fork duplicates buffer" test_stdio_double_flush_fork;
          tc "spawn does not" test_stdio_no_duplication_with_spawn;
        ] );
      ( "memory",
        [
          tc "brk/heap" test_brk_and_heap;
          tc "touch" test_touch_counts_pages;
          tc "stack guard page" test_stack_guard_page;
          tc "efault" test_segfault_efault;
          tc "efault read allocates nothing"
            test_mem_read_efault_allocates_nothing;
          tc "demand OOM kill through a lazy touch"
            test_demand_oom_kill_through_lazy_touch;
        ] );
      ( "aslr",
        [
          tc "spawn randomizes" test_aslr_spawn_randomizes;
          tc "fork inherits" test_fork_inherits_layout;
        ] );
      ( "scheduler",
        [
          tc "deterministic replay" test_deterministic_replay;
          tc "random completes" test_random_sched_completes;
          tc "tick limit" test_tick_limit;
          tc "trace" test_trace_records_syscalls;
        ] );
      ( "creation-cost",
        [ tc "fork scales, spawn flat" test_fork_cost_scales_spawn_does_not ] );
      ( "zygote",
        [
          tc "lifecycle" test_zygote_lifecycle;
          tc "discard lifecycle" test_zygote_discard_lifecycle;
          tc "errors" test_zygote_errors;
          tc "freeze while sharing" test_zygote_freeze_sharing;
          tc "failed spawn rolls back" test_zygote_failed_spawn_rolls_back;
          tc "cost flat" test_zygote_cost_flat;
        ] );
      ( "blame",
        [
          tc "deferred to latest fork" test_blame_deferred_to_latest_fork;
          tc "child COW copies" test_blame_child_cow_copies;
          tc "spawn has no deferred" test_blame_spawn_has_no_deferred;
          tc "creation bookkeeping" test_blame_creation_bookkeeping;
        ] );
      qsuite "robustness" [ prop_random_programs ];
      qsuite "blame-props" [ prop_blame_partition ];
    ]
