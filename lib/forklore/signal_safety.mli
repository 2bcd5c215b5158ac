(** Calls that are not async-signal-safe.

    After [fork()] in a multithreaded process the child may call only
    the async-signal-safe functions of POSIX.1-2017 until it reaches
    exec (XSH
    {{:https://pubs.opengroup.org/onlinepubs/9699919799/}§2.4.3}).
    The [unsafe-child-work] dataflow rule consults {!is_known_unsafe},
    a deny list of common calls absent from that table — functions not
    on it (unknown externs, project-local helpers without a summary)
    are never reported, which keeps precision honest on arbitrary C
    trees. *)

val is_known_unsafe : string -> bool
(** Common libc/pthread function that is definitely {e not}
    async-signal-safe (allocator, stdio, locking, [exit], ...). *)
