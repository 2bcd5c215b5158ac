type t = {
  capacity : int;
  queue : Buffer.t;
  mutable read_pos : int;  (** consumed prefix of [queue] *)
  mutable readers : int;
  mutable writers : int;
  read_waiters : Waitq.t;
  write_waiters : Waitq.t;
  poll_waiters : Waitq.t;
}

let create ?(capacity = 65536) () =
  if capacity <= 0 then invalid_arg "Pipe.create: capacity <= 0";
  {
    capacity;
    queue = Buffer.create 256;
    read_pos = 0;
    readers = 0;
    writers = 0;
    read_waiters = Waitq.create ~exclusive:true;
    write_waiters = Waitq.create ~exclusive:true;
    poll_waiters = Waitq.create ~exclusive:false;
  }

let available t = Buffer.length t.queue - t.read_pos
let space t = t.capacity - available t
let read_waiters t = t.read_waiters
let write_waiters t = t.write_waiters
let poll_waiters t = t.poll_waiters
let add_reader t = t.readers <- t.readers + 1
let add_writer t = t.writers <- t.writers + 1

(* Every change that can let a parked read, write or poll go on wakes
   its queue: bytes in (readers), bytes out (writers), the last reader
   gone (writers break) and the last writer gone (readers see EOF); a
   poller may wait on either side. *)
let drop_reader t =
  t.readers <- max 0 (t.readers - 1);
  if t.readers = 0 then begin
    Waitq.kick t.write_waiters;
    Waitq.kick t.poll_waiters
  end

let drop_writer t =
  t.writers <- max 0 (t.writers - 1);
  if t.writers = 0 then begin
    Waitq.kick t.read_waiters;
    Waitq.kick t.poll_waiters
  end

(* Compact the buffer once the consumed prefix dominates, so long-lived
   pipes don't grow without bound. *)
let compact t =
  if t.read_pos > 4096 && t.read_pos * 2 > Buffer.length t.queue then begin
    let rest = Buffer.sub t.queue t.read_pos (available t) in
    Buffer.clear t.queue;
    Buffer.add_string t.queue rest;
    t.read_pos <- 0
  end

let write t s =
  let n = min (String.length s) (space t) in
  if n > 0 then begin
    Buffer.add_substring t.queue s 0 n;
    Waitq.kick t.read_waiters;
    Waitq.kick t.poll_waiters
  end;
  n

let read t n =
  let n = min n (available t) in
  if n <= 0 then ""
  else begin
    let s = Buffer.sub t.queue t.read_pos n in
    t.read_pos <- t.read_pos + n;
    compact t;
    Waitq.kick t.write_waiters;
    Waitq.kick t.poll_waiters;
    s
  end

let eof t = available t = 0 && t.writers = 0
let broken t = t.readers = 0
