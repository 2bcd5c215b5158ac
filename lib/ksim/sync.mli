(** Process-local mutexes whose state lives, conceptually, in process
    memory.

    This is the heart of the paper's thread-safety argument: a mutex is
    just a word in the address space, so fork copies it {e as data}. If a
    thread other than the forker holds a lock at fork time, the child's
    copy is "held" by a thread that does not exist in the child — and the
    first lock attempt there blocks forever. {!clone_table} implements
    exactly that memcpy semantics. Blocking itself is the kernel's job;
    this module stores the state and the queue of parked lockers. *)

type state = Unlocked | Locked_by of Types.tid

type t = {
  id : int;
  mutable state : state;
  waiters : Waitq.t;  (** parked [mutex_lock]s (exclusive) *)
}

type table

val create_table : unit -> table

val create : table -> t
(** Allocate a fresh unlocked mutex with a table-unique id. *)

val find : table -> int -> t option

val unlock : t -> unit
(** Set the mutex unlocked (unlock, reinit) and wake one parked
    locker. *)

val clone_table : table -> table
(** fork: duplicate every mutex record {e including its owner field} —
    the child inherits locks held by threads it doesn't have. The copies
    start with no parked lockers. *)

val held_by_missing_thread : table -> live_tids:Types.tid list -> t list
(** Mutexes whose owner is not among [live_tids] — the orphaned locks
    that make a post-fork child deadlock-prone. *)
