(** Wait queues: how a parked syscall learns that it may proceed.

    A syscall that has to wait parks a {!waiter} on the queue of every
    object it waits on: a pipe's readers, writers or pollers, a
    listener's accepters or pollers, a mutex, a process's waitpid or
    vfork callers. The module that owns an object's state {!kick}s its
    queue whenever a change may let a parked check succeed, and the run
    loop's {!run_pass} re-runs only the kicked waiters, plus the timed
    ones whose deadline has come.

    A pass visits waiters in park order, and a waiter kicked during a
    pass joins it if the pass has not reached it yet, or the next pass
    otherwise. That is exactly when a scan of every parked waiter in
    park order after every scheduling round would have found it ready,
    so the order of wakeups is the scan's.

    An {e exclusive} queue wakes one waiter per kick, like Linux's
    [prepare_to_wait_exclusive]: its waiters wait for the same
    condition, and whichever is visited first either takes what the
    kick announced or proves that nothing is there. A visited exclusive
    waiter that stops waiting (it got its reply, or its thread died)
    passes the wake to the waiter behind it. A {e shared} queue wakes
    all of its waiters. *)

type payload = ..
(** What the kernel keeps per parked syscall. *)

type waiter
type t

type machine
(** One machine's parked waiters and pass state. *)

val create_machine : unit -> machine
val create : exclusive:bool -> t

val park : machine -> on:t list -> ?deadline:int -> payload -> waiter
(** Park a waiter on every queue of [on]; [deadline] is the tick from
    which every pass visits it. *)

val kick : t -> unit
(** The queue's object changed: an exclusive queue wakes its oldest
    waiter, and, during a pass that is already past that one, the oldest
    waiter the pass has still to reach; a shared queue wakes every
    waiter. *)

val wake : waiter -> unit
(** Wake one waiter: its thread died, and its next visit takes it off
    its queues. *)

val run_pass : machine -> now:int -> (waiter -> bool) -> unit
(** Visit every woken waiter and every waiter whose deadline is at most
    [now], in park order. [visit w] returns [true] while [w] still
    waits; otherwise [w] leaves its queues. *)

val payload : waiter -> payload

val parked : machine -> int
(** Waiters that have not left, including any whose thread died after
    the last pass. *)

val parked_payloads : machine -> payload list
(** The same waiters' payloads, in park order. *)

val next_deadline : machine -> int option
(** The earliest deadline among them. *)
