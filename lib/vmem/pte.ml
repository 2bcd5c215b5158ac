type t = int

let bit_present = 1
let bit_read = 2
let bit_write = 4
let bit_exec = 8
let bit_cow = 16
let bit_accessed = 32
let bit_dirty = 64
let bit_lazy = 128
let frame_shift = 8
let absent = 0
let present t = t land bit_present <> 0

let make ~frame ~perm ?(cow = false) () =
  if frame < 0 then invalid_arg "Pte.make: negative frame";
  (frame lsl frame_shift)
  lor bit_present
  lor (if perm.Perm.read then bit_read else 0)
  lor (if perm.Perm.write then bit_write else 0)
  lor (if perm.Perm.exec then bit_exec else 0)
  lor if cow then bit_cow else 0

let frame t = t lsr frame_shift

(* A lazy (not-present-until-touched) entry reuses the frame field as an
   opaque pager cookie. It never sets bit_present, so every present-gated
   walk (clear, refcount passes, the batch helpers below) skips it for
   free; only the fault path and the explicit range installers look at
   bit_lazy. *)
let make_lazy ~cookie ~perm () =
  if cookie < 0 then invalid_arg "Pte.make_lazy: negative cookie";
  (cookie lsl frame_shift)
  lor bit_lazy
  lor (if perm.Perm.read then bit_read else 0)
  lor (if perm.Perm.write then bit_write else 0)
  lor if perm.Perm.exec then bit_exec else 0

let lazy_ t = t land bit_lazy <> 0 && t land bit_present = 0
let cookie t = t lsr frame_shift

(* On a present entry, bit 7 marks "installed by readahead, not yet
   touched" — the first real access clears it and counts as a readahead
   hit instead of a fault. *)
let mark_prefetched t = t lor bit_lazy
let prefetched t = t land bit_lazy <> 0 && t land bit_present <> 0
let clear_prefetched t = t land lnot bit_lazy

let perm t =
  {
    Perm.read = t land bit_read <> 0;
    write = t land bit_write <> 0;
    exec = t land bit_exec <> 0;
  }

let writable t = t land bit_write <> 0
let cow t = t land bit_cow <> 0
let accessed t = t land bit_accessed <> 0
let dirty t = t land bit_dirty <> 0

let with_perm t p =
  let cleared = t land lnot (bit_read lor bit_write lor bit_exec) in
  cleared
  lor (if p.Perm.read then bit_read else 0)
  lor (if p.Perm.write then bit_write else 0)
  lor if p.Perm.exec then bit_exec else 0

let with_cow t c = if c then t lor bit_cow else t land lnot bit_cow

let with_frame t f =
  if f < 0 then invalid_arg "Pte.with_frame: negative frame";
  (f lsl frame_shift) lor (t land ((1 lsl frame_shift) - 1))

let mark_accessed t = t lor bit_accessed
let mark_dirty t = t lor bit_dirty

(* Batch helpers: the simulator's range paths process pages by the
   million, and without cross-module inlining a per-page [make] or
   [frame] call dominates the loop, so these keep the per-page work
   inside this module. *)

let blit_run ~frames ~n ~perm dst ~at =
  if n < 0 || n > Array.length frames || at < 0 || at + n > Array.length dst
  then invalid_arg "Pte.blit_run";
  if n > 0 then begin
    let template = make ~frame:0 ~perm () in
    for k = 0 to n - 1 do
      Array.unsafe_set dst (at + k)
        (template lor (Array.unsafe_get frames k lsl frame_shift))
    done
  end

let frames_of_run src ~lo ~hi ~dst =
  if lo < 0 || hi >= Array.length src || hi - lo >= Array.length dst then
    invalid_arg "Pte.frames_of_run";
  let k = ref 0 in
  for i = lo to hi do
    let pte = Array.unsafe_get src i in
    if pte land bit_present <> 0 then begin
      Array.unsafe_set dst !k (pte lsr frame_shift);
      incr k
    end
  done;
  !k

let cow_run_end src ~lo ~hi =
  if lo < 0 || hi >= Array.length src then invalid_arg "Pte.cow_run_end";
  let mask = bit_present lor bit_write lor bit_cow in
  let i = ref lo in
  while !i <= hi && Array.unsafe_get src !i land mask = (bit_present lor bit_cow) do
    incr i
  done;
  !i

let unshare_run dst ~at ~frames ~n ~perm =
  if n < 0 || n > Array.length frames || at < 0 || at + n > Array.length dst
  then invalid_arg "Pte.unshare_run";
  let template = make ~frame:0 ~perm () in
  let keep = lnot (bit_read lor bit_write lor bit_exec lor bit_cow) in
  let perm_bits = template land lnot bit_present in
  let reused = ref 0 in
  for k = 0 to n - 1 do
    let pte = Array.unsafe_get dst (at + k) and f = Array.unsafe_get frames k in
    if pte lsr frame_shift = f then begin
      Array.unsafe_set dst (at + k) ((pte land keep) lor perm_bits);
      incr reused
    end
    else Array.unsafe_set dst (at + k) (template lor (f lsl frame_shift))
  done;
  !reused

let downgrade_run src ~lo ~hi =
  if lo < 0 || hi >= Array.length src then invalid_arg "Pte.downgrade_run";
  for i = lo to hi do
    let pte = Array.unsafe_get src i in
    if pte land (bit_present lor bit_write) = bit_present lor bit_write then
      Array.unsafe_set src i ((pte land lnot bit_write) lor bit_cow)
  done

let lazy_blit_run ~cookie0 ~stride ~n ~perm dst ~at =
  if n < 0 || at < 0 || at + n > Array.length dst || cookie0 < 0 || stride < 0
  then invalid_arg "Pte.lazy_blit_run";
  if n > 0 then begin
    let template = make_lazy ~cookie:0 ~perm () in
    for k = 0 to n - 1 do
      Array.unsafe_set dst (at + k)
        (template lor ((cookie0 + (k * stride)) lsl frame_shift))
    done
  end

(* The run helpers of a pager request window. An empty array reads as
   all-absent entries, like a missing leaf's view. *)

let lazy_run_end src ~lo ~hi =
  if Array.length src = 0 then lo
  else begin
    if lo < 0 || hi >= Array.length src then invalid_arg "Pte.lazy_run_end";
    let i = ref lo in
    while
      !i <= hi && Array.unsafe_get src !i land (bit_present lor bit_lazy) = bit_lazy
    do
      incr i
    done;
    !i
  end

let backed_run_end ~own ~back ~lo ~hi =
  if Array.length back = 0 then lo
  else begin
    if lo < 0 || hi >= Array.length back
       || (Array.length own > 0 && hi >= Array.length own)
    then invalid_arg "Pte.backed_run_end";
    let i = ref lo in
    if Array.length own = 0 then
      while !i <= hi && Array.unsafe_get back !i land bit_present <> 0 do
        incr i
      done
    else
      while
        !i <= hi
        && Array.unsafe_get own !i land (bit_present lor bit_lazy) = 0
        && Array.unsafe_get back !i land bit_present <> 0
      do
        incr i
      done;
    !i
  end

let sources_of_run src ~lo ~n ~dst ~at =
  if n < 0 || lo < 0 || lo + n > Array.length src || at < 0
     || at + n > Array.length dst
  then invalid_arg "Pte.sources_of_run";
  for k = 0 to n - 1 do
    Array.unsafe_set dst (at + k) (Array.unsafe_get src (lo + k) lsr frame_shift)
  done

let fetched_run dst ~at ~frames ~off ~n ~perm ~fault ~hi =
  if n < 0 || at < 0 || at + n > Array.length dst || off < 0
     || off + n > Array.length frames
  then invalid_arg "Pte.fetched_run";
  let plain = make ~frame:0 ~perm () in
  let touched = plain lor bit_accessed lor bit_dirty in
  let prefetched = plain lor bit_lazy in
  for k = 0 to n - 1 do
    let i = at + k in
    let bits = if i = fault then plain else if i <= hi then touched else prefetched in
    Array.unsafe_set dst i (bits lor (Array.unsafe_get frames (off + k) lsl frame_shift))
  done
