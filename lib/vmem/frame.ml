type policy = Strict | Overcommit | Demand

type frame = int

(* Refcounts are byte-packed: values 0..253 live directly in [refcounts];
   the sentinel 255 means the true count (>= 254) is in [spill], and the
   sentinel 254 marks an {e immortal} frame — pinned by a sealed
   template, exempt from counting entirely. Sweeps allocate tens of
   millions of frames per boot, so the count store must be one byte per
   frame, not one word. It covers only the frames handed out so far:
   fresh frames come in ascending order from [next_fresh], so the store
   doubles (up to [nframes]) as that passes its end, and a frame past
   the end reads as unallocated, which it is. A machine that uses a
   little of a large memory pays for what it uses. *)
let spilled = 255
let immortal = 254

(* Released page-table arrays, for {!Page_table} to reuse: leaf arrays
   of packed PTEs, and inner nodes' child arrays. *)
type 'a stack = { mutable arrays : 'a array array; mutable top : int }
type spares = { leaves : int stack; inners : Pt_node.t option stack }

(* The free list is a LIFO stack, run-compressed: teardown frees frames
   in long ascending bursts, so the stack stores (lo, hi) runs where the
   pushes arrived as lo, lo+1, ..., hi. Popping a run yields hi, hi-1,
   ..., lo — exactly the reverse-push order a flat stack would give.
   Pushes that don't extend the top run just open a new one, so
   arbitrary free patterns degrade to one run per frame, never worse
   than the flat representation. *)
type t = {
  nframes : int;
  mutable refcounts : Bytes.t;  (** frames [0, length) *)
  spill : (int, int) Hashtbl.t;  (** true refcounts >= 255 *)
  mutable next_fresh : int;  (** frames >= this have never been handed out *)
  mutable run_lo : int array;  (** free-stack run starts *)
  mutable run_hi : int array;  (** free-stack run ends (inclusive) *)
  mutable run_top : int;  (** number of live runs *)
  mutable used : int;
  mutable pinned : int;  (** frames in the immortal class *)
  mutable committed : int;
  mutable policy : policy;
  data : (int, Bytes.t) Hashtbl.t;  (** materialised contents *)
  mutable data_max : int;  (** no frame above this ever had contents *)
  mutable deny_alloc : (unit -> bool) option;
      (** fault-injection hook: consulted once per frame allocation;
          [true] makes the allocation fail with [`Out_of_memory] *)
  mutable deny_commit : (unit -> bool) option;
      (** fault-injection hook: consulted once per non-empty commit
          charge; [true] makes it fail with [`Commit_limit] *)
  spares : spares;
}

let create ?(policy = Strict) ~frames () =
  if frames <= 0 then invalid_arg "Frame.create: frames <= 0";
  {
    nframes = frames;
    refcounts = Bytes.make (min frames 1024) '\000';
    spill = Hashtbl.create 16;
    next_fresh = 0;
    run_lo = [||];
    run_hi = [||];
    run_top = 0;
    used = 0;
    pinned = 0;
    committed = 0;
    policy;
    data = Hashtbl.create 64;
    data_max = -1;
    deny_alloc = None;
    deny_commit = None;
    spares =
      {
        leaves = { arrays = [||]; top = 0 };
        inners = { arrays = [||]; top = 0 };
      };
  }

let spares t = t.spares
let set_deny_alloc t hook = t.deny_alloc <- hook
let set_deny_commit t hook = t.deny_commit <- hook

let denied hook = match hook with Some f -> f () | None -> false

let policy t = t.policy
let set_policy t p = t.policy <- p
let used t = t.used
let free t = t.nframes - t.used

let rc_get t f = Char.code (Bytes.unsafe_get t.refcounts f)
let rc_set t f v = Bytes.unsafe_set t.refcounts f (Char.unsafe_chr v)

(* Make the count store cover fresh frames up to [next] (exclusive),
   before they are handed out. *)
let cover t next =
  let len = Bytes.length t.refcounts in
  if next > len then begin
    let grown = Bytes.make (min t.nframes (max next (2 * len))) '\000' in
    Bytes.blit t.refcounts 0 grown 0 len;
    t.refcounts <- grown
  end

(* Whether [f] names a frame the count store covers. *)
let covered t f = f >= 0 && f < Bytes.length t.refcounts

let check_frame t f name =
  if (not (covered t f)) || rc_get t f = 0 then
    invalid_arg (name ^ ": unallocated frame")

let push_free t f =
  if t.run_top > 0 && t.run_hi.(t.run_top - 1) + 1 = f then
    t.run_hi.(t.run_top - 1) <- f
  else begin
    if t.run_top = Array.length t.run_lo then begin
      let cap = max 256 (2 * Array.length t.run_lo) in
      let lo = Array.make cap 0 and hi = Array.make cap 0 in
      Array.blit t.run_lo 0 lo 0 t.run_top;
      Array.blit t.run_hi 0 hi 0 t.run_top;
      t.run_lo <- lo;
      t.run_hi <- hi
    end;
    t.run_lo.(t.run_top) <- f;
    t.run_hi.(t.run_top) <- f;
    t.run_top <- t.run_top + 1
  end

let take t =
  if denied t.deny_alloc then -1
  else if t.run_top > 0 then begin
    let r = t.run_top - 1 in
    let f = t.run_hi.(r) in
    if f = t.run_lo.(r) then t.run_top <- r else t.run_hi.(r) <- f - 1;
    rc_set t f 1;
    t.used <- t.used + 1;
    f
  end
  else if t.next_fresh >= t.nframes then -1
  else begin
    let f = t.next_fresh in
    t.next_fresh <- t.next_fresh + 1;
    cover t t.next_fresh;
    rc_set t f 1;
    t.used <- t.used + 1;
    f
  end

let alloc t =
  let f = take t in
  if f < 0 then Error `Out_of_memory else Ok f

(* With a deny hook installed, the batched path must consult it once per
   frame — exactly like [n] successive allocs would — so "fail the Nth
   frame allocation" schedules bite identically whether the machine runs
   batched or per-page. *)
let alloc_upto_hooked t ~into n =
  let rec go k =
    if k >= n then k
    else
      let f = take t in
      if f < 0 then k
      else begin
        into.(k) <- f;
        go (k + 1)
      end
  in
  go 0

let alloc_upto t ~into n =
  if n < 0 || n > Array.length into then
    invalid_arg "Frame.alloc_upto: bad count";
  if t.deny_alloc <> None then alloc_upto_hooked t ~into n
  else begin
  let k = ref 0 in
  (* recycled frames first, newest-freed first — the exact order [n]
     successive allocs would produce *)
  while !k < n && t.run_top > 0 do
    let r = t.run_top - 1 in
    let lo = t.run_lo.(r) and hi = t.run_hi.(r) in
    let take = min (n - !k) (hi - lo + 1) in
    for i = 0 to take - 1 do
      into.(!k + i) <- hi - i
    done;
    if take = hi - lo + 1 then t.run_top <- r else t.run_hi.(r) <- hi - take;
    k := !k + take
  done;
  let fresh = min (n - !k) (t.nframes - t.next_fresh) in
  let fresh0 = t.next_fresh in
  t.next_fresh <- t.next_fresh + fresh;
  cover t t.next_fresh;
  t.used <- t.used + !k + fresh;
  for i = 0 to fresh - 1 do
    into.(!k + i) <- fresh0 + i
  done;
  k := !k + fresh;
  for i = 0 to !k - 1 do
    rc_set t into.(i) 1
  done;
  !k
  end

let incref_spilling t f c =
  if c = immortal - 1 then begin
    rc_set t f spilled;
    Hashtbl.replace t.spill f (c + 1)
  end
  else Hashtbl.replace t.spill f (Hashtbl.find t.spill f + 1)

let incref t f =
  check_frame t f "Frame.incref";
  let c = rc_get t f in
  if c < immortal - 1 then rc_set t f (c + 1)
  else if c = immortal then ()
  else incref_spilling t f c

let decref_spilled t f =
  let v = Hashtbl.find t.spill f - 1 in
  if v < immortal then begin
    Hashtbl.remove t.spill f;
    rc_set t f v
  end
  else Hashtbl.replace t.spill f v

let decref t f =
  check_frame t f "Frame.decref";
  let c = rc_get t f in
  if c = spilled then begin
    decref_spilled t f;
    false
  end
  else if c = immortal then false
  else begin
    rc_set t f (c - 1);
    if c = 1 then begin
      if f <= t.data_max then Hashtbl.remove t.data f;
      push_free t f;
      t.used <- t.used - 1;
      true
    end
    else false
  end

(* [incref_many] and [decref_many] test coverage inline, as
   [unshare_many] does: [covered] is not inlined, and these loops run at
   every privatise and every teardown. An uncovered frame reads as
   count 0, which [check_frame] rejects. *)
let incref_many t fs n =
  if n < 0 || n > Array.length fs then invalid_arg "Frame.incref_many";
  for i = 0 to n - 1 do
    let f = Array.unsafe_get fs i in
    let c =
      if f >= 0 && f < Bytes.length t.refcounts then rc_get t f else 0
    in
    if c = 0 then check_frame t f "Frame.incref"
    else if c < immortal - 1 then rc_set t f (c + 1)
    else if c = immortal then ()
    else incref_spilling t f c
  done

let decref_many t fs n =
  if n < 0 || n > Array.length fs then invalid_arg "Frame.decref_many";
  for i = 0 to n - 1 do
    let f = Array.unsafe_get fs i in
    let c =
      if f >= 0 && f < Bytes.length t.refcounts then rc_get t f else 0
    in
    if c = 1 then begin
      rc_set t f 0;
      if f <= t.data_max then Hashtbl.remove t.data f;
      push_free t f;
      t.used <- t.used - 1
    end
    else if c = 0 then check_frame t f "Frame.decref"
    else if c = immortal then ()
    else if c < spilled then rc_set t f (c - 1)
    else decref_spilled t f
  done

let refcount t f =
  if not (covered t f) then 0
  else
    match rc_get t f with
    | c when c = spilled -> Hashtbl.find t.spill f
    | c when c = immortal -> max_int
    | c -> c

(* The immortal class: a pinned frame belongs to a sealed template, so
   it opts out of reference counting — incref/decref become no-ops,
   {!refcount} reads as [max_int] (COW breaks always copy away from it,
   never reclaim it in place), and the frame cannot be freed until
   {!unpin} returns it to a normally-counted single reference. Pinning
   is what keeps zygote spawns O(shared subtrees): children never touch
   the per-frame counts of template pages. *)
let pin t f =
  check_frame t f "Frame.pin";
  let c = rc_get t f in
  if c <> immortal then begin
    if c = spilled then Hashtbl.remove t.spill f;
    rc_set t f immortal;
    t.pinned <- t.pinned + 1
  end

let pin_many t fs n =
  if n < 0 || n > Array.length fs then invalid_arg "Frame.pin_many";
  for i = 0 to n - 1 do
    pin t (Array.unsafe_get fs i)
  done

let unpin t f =
  check_frame t f "Frame.unpin";
  if rc_get t f <> immortal then invalid_arg "Frame.unpin: frame not pinned";
  rc_set t f 1;
  t.pinned <- t.pinned - 1

let is_pinned t f = covered t f && rc_get t f = immortal
let pinned t = t.pinned

let commit t pages =
  if pages < 0 then invalid_arg "Frame.commit: negative";
  if pages > 0 && denied t.deny_commit then Error `Commit_limit
  else
    match t.policy with
    | Overcommit | Demand ->
      (* Demand admits like Overcommit at commit time; the reckoning
         moves to first-touch faults, where the kernel's OOM killer
         frees pressure instead of refusing admission. *)
      t.committed <- t.committed + pages;
      Ok ()
    | Strict ->
      if t.committed + pages > t.nframes then Error `Commit_limit
      else begin
        t.committed <- t.committed + pages;
        Ok ()
      end

let uncommit t pages =
  if pages < 0 then invalid_arg "Frame.uncommit: negative";
  t.committed <- max 0 (t.committed - pages)

let committed t = t.committed

let contents t f =
  match Hashtbl.find_opt t.data f with
  | Some b -> b
  | None ->
    let b = Bytes.make Addr.page_size '\000' in
    Hashtbl.add t.data f b;
    if f > t.data_max then t.data_max <- f;
    b

let blit_string t f ~off ?(pos = 0) ?len s =
  check_frame t f "Frame.blit_string";
  let len = match len with Some n -> n | None -> String.length s - pos in
  if off < 0 || pos < 0 || len < 0 || pos + len > String.length s
     || off + len > Addr.page_size
  then invalid_arg "Frame.blit_string: range";
  Bytes.blit_string s pos (contents t f) off len

let read_string t f ~off ~len =
  check_frame t f "Frame.read_string";
  if off < 0 || len < 0 || off + len > Addr.page_size then
    invalid_arg "Frame.read_string: range";
  match Hashtbl.find_opt t.data f with
  | None -> String.make len '\000'
  | Some b -> Bytes.sub_string b off len

let read_into t f ~off ~len buf ~pos =
  check_frame t f "Frame.read_into";
  if off < 0 || len < 0 || off + len > Addr.page_size || pos < 0
     || pos + len > Bytes.length buf
  then invalid_arg "Frame.read_into: range";
  match Hashtbl.find_opt t.data f with
  | None -> Bytes.fill buf pos len '\000'
  | Some b -> Bytes.blit b off buf pos len

let copy_contents t ~src ~dst =
  check_frame t src "Frame.copy_contents";
  check_frame t dst "Frame.copy_contents";
  (* like [decref], skip the table above [data_max]: most COW breaks
     copy a frame that was never written *)
  if src <= t.data_max then
    match Hashtbl.find_opt t.data src with
    | None -> ()
    | Some b ->
      Hashtbl.replace t.data dst (Bytes.copy b);
      if dst > t.data_max then t.data_max <- dst

(* One typed loop that makes [refcount], [take] and [decref]'s
   transitions itself: none of them is inlined, and breaking 512 shared
   frames took 28-34 ns a frame through them, 7-12 ns here. A
   replacement draws once from the deny hook, then pops like [take]:
   the top free run's high end, else a fresh frame. Only a frame that
   was ever written calls [copy_contents]. The old frame's count is at
   least 2, spilled or immortal, so dropping its reference never frees
   it. *)
let unshare_many t fs n =
  if n < 0 || n > Array.length fs then invalid_arg "Frame.unshare_many";
  let k = ref 0 and stop = ref n in
  while !k < !stop do
    let f = Array.unsafe_get fs !k in
    let c =
      if f >= 0 && f < Bytes.length t.refcounts then rc_get t f else 0
    in
    if c = 1 then incr k
    else if c = 0 then check_frame t f "Frame.copy_contents"
    else begin
      let refused =
        match t.deny_alloc with Some deny -> deny () | None -> false
      in
      let fresh =
        if refused then -1
        else if t.run_top > 0 then begin
          let r = t.run_top - 1 in
          let g = t.run_hi.(r) in
          if g = t.run_lo.(r) then t.run_top <- r else t.run_hi.(r) <- g - 1;
          g
        end
        else if t.next_fresh >= t.nframes then -1
        else begin
          let g = t.next_fresh in
          t.next_fresh <- g + 1;
          cover t t.next_fresh;
          g
        end
      in
      if fresh < 0 then stop := !k
      else begin
        rc_set t fresh 1;
        t.used <- t.used + 1;
        if f <= t.data_max then copy_contents t ~src:f ~dst:fresh;
        if c = spilled then decref_spilled t f
        else if c <> immortal then rc_set t f (c - 1);
        Array.unsafe_set fs !k fresh;
        incr k
      end
    end
  done;
  !k
