(** Simulated program images.

    A program is an OCaml closure standing in for machine code, plus the
    image geometry (text/data sizes) the exec loader uses to build the
    address space and charge load costs. Programs are registered under a
    path; [exec]/[posix_spawn] look the path up in the kernel registry
    (ENOENT if absent — there is no on-disk format). *)

type t = {
  name : string;  (** registry path, e.g. "/bin/true" *)
  text_bytes : int;  (** size of the r-x image segment *)
  data_bytes : int;  (** size of the rw- image segment *)
  main : argv:string list -> unit -> unit;
      (** body factory; the closure runs as the process's initial thread
          and may perform {!Sysreq} effects *)
}

val make :
  ?text_kib:int -> ?data_kib:int -> name:string ->
  (argv:string list -> unit -> unit) -> t
(** Defaults: 64 KiB text, 16 KiB data.
    @raise Invalid_argument on negative sizes or an empty name. *)

val text_pages : t -> int
val data_pages : t -> int
