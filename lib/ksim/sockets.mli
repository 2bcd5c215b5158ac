(** Stream sockets and poll: the socket syscalls over the machine's port
    table, and poll's readiness and wait queues over every kind of
    description. Owns the machine's [socks] port table. *)

val socket : Proc.t -> (Types.fd, Errno.t) result Machine.action
val bind : Machine.t -> Proc.t -> Types.fd -> int -> (unit, Errno.t) result Machine.action
val listen : Proc.t -> Types.fd -> int -> (unit, Errno.t) result Machine.action
val accept : Machine.t -> Proc.t -> Types.fd -> (Types.fd, Errno.t) result Machine.action
val connect : Machine.t -> Proc.t -> Types.fd -> int -> (unit, Errno.t) result Machine.action

val poll :
  Machine.t -> Proc.t -> Types.poll_interest list -> int ->
  (Types.poll_revent list, Errno.t) result Machine.action
