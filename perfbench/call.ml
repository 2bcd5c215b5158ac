(* The syscalls the benchmark's simulated programs make: Ksim.Api,
   wrapped with the host probe. Every simulated program of the
   benchmark calls ksim only through this module. *)

module A = Ksim.Api
module P = Probe

let returning k f =
  P.enter k;
  let r = f () in
  P.resume ();
  r

let fork ~child = returning P.k_fork (fun () -> A.fork ~child:(P.thread child))

let exec ?argv path =
  P.enter_final P.k_exec;
  let r = A.exec ?argv path in
  P.resume_final ();
  r

let spawn ?argv path = returning P.k_spawn (fun () -> A.spawn ?argv path)

let spawn_from_template tpl ~child =
  returning P.k_template_spawn (fun () ->
      A.spawn_from_template tpl ~child:(P.thread child))

let touch ~addr ~len = returning P.k_touch (fun () -> A.touch ~addr ~len)
let wait_for pid = returning P.k_wait (fun () -> A.wait_for pid)

let exit code =
  P.enter_final P.k_exit;
  A.exit code

let socket () = returning P.k_socket A.socket
let connect fd ~port = returning P.k_connect (fun () -> A.connect fd ~port)
let accept fd = returning P.k_accept (fun () -> A.accept fd)
let read fd n = returning P.k_read (fun () -> A.read fd n)
let write fd s = returning P.k_write (fun () -> A.write fd s)
let close fd = returning P.k_close (fun () -> A.close fd)

let poll ?timeout interests =
  returning P.k_poll (fun () -> A.poll ?timeout interests)

let thread_create f =
  returning P.k_thread_create (fun () -> A.thread_create (P.thread f))

(* Setup and teardown calls, charged to "other". *)
let mmap ~len = returning P.k_other (fun () -> A.mmap ~len ~perm:Vmem.Perm.rw)
let mem_read ~addr ~len = returning P.k_other (fun () -> A.mem_read ~addr ~len)
let freeze () = returning P.k_other (fun () -> A.freeze ())
let template_discard tpl = returning P.k_other (fun () -> A.template_discard tpl)
let bind fd ~port = returning P.k_other (fun () -> A.bind fd ~port)
let listen fd ~backlog = returning P.k_other (fun () -> A.listen fd ~backlog)

(* A registered program whose main is a probed entry. *)
let program ?text_kib ?data_kib name main =
  Ksim.Program.make ?text_kib ?data_kib ~name (fun ~argv () ->
      P.thread (fun () -> main argv) ())
