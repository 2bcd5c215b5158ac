(* Sliding-window statistics: a time-bucketed ring of slots, each
   covering width/slots of the time axis. A slot stores count/sum/
   min/max plus a log-bucketed histogram; queries merge the slots whose
   epoch is still inside the window ending at [now]. Time is always
   passed in by the caller — the module never reads a clock — so
   windowed metrics are deterministic and unit-testable. *)

type slot = {
  mutable epoch : int;  (* which slot-width interval this data is for *)
  mutable count : int;
  mutable sum : float;
  mutable mn : float;
  mutable mx : float;
  mutable hist : Histogram.t;
}

type t = {
  width : float;
  slots : slot array;
  slot_width : float;
  hist_base : float;
  hist_buckets : int;
}

let create ?(slots = 16) ?(hist_base = 1e-6) ?(hist_buckets = 48) ~width () =
  if width <= 0.0 then invalid_arg "Window.create: width <= 0";
  if slots < 2 then invalid_arg "Window.create: slots < 2";
  {
    width;
    slots =
      Array.init slots (fun _ ->
          {
            epoch = -1;
            count = 0;
            sum = 0.0;
            mn = infinity;
            mx = neg_infinity;
            hist = Histogram.create ~base:hist_base ~buckets:hist_buckets ();
          });
    slot_width = width /. float_of_int slots;
    hist_base;
    hist_buckets;
  }

let epoch_of t now = int_of_float (Float.floor (now /. t.slot_width))

let slot_for t epoch =
  let n = Array.length t.slots in
  let s = t.slots.(((epoch mod n) + n) mod n) in
  if s.epoch <> epoch then begin
    s.epoch <- epoch;
    s.count <- 0;
    s.sum <- 0.0;
    s.mn <- infinity;
    s.mx <- neg_infinity;
    s.hist <- Histogram.create ~base:t.hist_base ~buckets:t.hist_buckets ()
  end;
  s

let add t ~now v =
  if now < 0.0 then invalid_arg "Window.add: negative time";
  if v < 0.0 then invalid_arg "Window.add: negative sample";
  let s = slot_for t (epoch_of t now) in
  s.count <- s.count + 1;
  s.sum <- s.sum +. v;
  if v < s.mn then s.mn <- v;
  if v > s.mx then s.mx <- v;
  Histogram.add s.hist v

(* Live slots at [now]: epochs in (epoch(now) - slots, epoch(now)] —
   i.e. data newer than [width] ago, at slot granularity. *)
let fold_live t ~now ~init ~f =
  let cur = epoch_of t now in
  let n = Array.length t.slots in
  Array.fold_left
    (fun acc s ->
      if s.epoch >= 0 && s.epoch <= cur && s.epoch > cur - n then f acc s
      else acc)
    init t.slots

let observations t ~now = fold_live t ~now ~init:0 ~f:(fun a s -> a + s.count)
let sum t ~now = fold_live t ~now ~init:0.0 ~f:(fun a s -> a +. s.sum)

let mean t ~now =
  match observations t ~now with
  | 0 -> None
  | n -> Some (sum t ~now /. float_of_int n)

let minimum t ~now =
  let m = fold_live t ~now ~init:infinity ~f:(fun a s -> Float.min a s.mn) in
  if m = infinity then None else Some m

let maximum t ~now =
  let m =
    fold_live t ~now ~init:neg_infinity ~f:(fun a s -> Float.max a s.mx)
  in
  if m = neg_infinity then None else Some m

let rate t ~now = float_of_int (observations t ~now) /. t.width

let histogram t ~now =
  fold_live t ~now
    ~init:(Histogram.create ~base:t.hist_base ~buckets:t.hist_buckets ())
    ~f:(fun acc s -> Histogram.merge acc s.hist)

let quantile t ~now q =
  let h = histogram t ~now in
  if Histogram.count h = 0 then None else Some (Histogram.quantile h q)

let to_json t ~now =
  let open Json in
  obj
    [
      ("width", num t.width);
      ("slots", int (Array.length t.slots));
      ("observations", int (observations t ~now));
      ("sum", num (sum t ~now));
      ("mean", match mean t ~now with Some m -> num m | None -> Null);
      ("min", match minimum t ~now with Some m -> num m | None -> Null);
      ("max", match maximum t ~now with Some m -> num m | None -> Null);
      ("rate", num (rate t ~now));
      ( "p50",
        match quantile t ~now 0.5 with Some q -> num q | None -> Null );
      ( "p95",
        match quantile t ~now 0.95 with Some q -> num q | None -> Null );
      ( "p99",
        match quantile t ~now 0.99 with Some q -> num q | None -> Null );
    ]
