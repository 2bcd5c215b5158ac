let warned = ref false

let warn fmt =
  Printf.ksprintf
    (fun msg ->
      if not !warned then begin
        warned := true;
        prerr_endline ("forkroad: warning: " ^ msg)
      end)
    fmt

let override = ref None

let set_jobs n =
  if n < 0 then invalid_arg "Par.set_jobs: negative job count";
  override := Some n

let jobs () =
  let cores = Domain.recommended_domain_count () in
  match !override with
  | Some 0 -> 1 (* 0 = explicitly sequential, like the env var *)
  | Some n ->
    let cap = 4 * cores in
    if n > cap then begin
      warn "--jobs %d exceeds 4x cores; clamping to %d" n cap;
      cap
    end
    else n
  | None -> (
    match Sys.getenv_opt "FORKROAD_JOBS" with
  | Some s -> (
    let cap = 4 * cores in
    match int_of_string_opt (String.trim s) with
    | Some 0 -> 1 (* 0 = explicitly sequential *)
    | Some n when n < 0 ->
      warn "FORKROAD_JOBS=%s is negative; using %d (cores)" s cores;
      cores
    | Some n when n > cap ->
      warn "FORKROAD_JOBS=%s exceeds 4x cores; clamping to %d" s cap;
      cap
    | Some n -> n
    | None ->
      warn "FORKROAD_JOBS=%S is not an integer; using %d (cores)" s cores;
      cores)
    | None -> cores)

let map ?jobs:requested f xs =
  let jobs = match requested with Some n -> n | None -> jobs () in
  let n = List.length xs in
  if jobs <= 1 || n <= 1 then List.map f xs
  else begin
    let items = Array.of_list xs in
    let results = Array.make n None in
    let errors = Array.make n None in
    let next = Atomic.make 0 in
    let rec worker () =
      let i = Atomic.fetch_and_add next 1 in
      if i < n then begin
        (match f items.(i) with
        | r -> results.(i) <- Some r
        | exception e -> errors.(i) <- Some e);
        worker ()
      end
    in
    let spawned =
      List.init (min (jobs - 1) (n - 1)) (fun _ -> Domain.spawn worker)
    in
    worker ();
    List.iter Domain.join spawned;
    (* deterministic error choice: the earliest-indexed failure wins *)
    Array.iter (function Some e -> raise e | None -> ()) errors;
    Array.to_list results |> List.map (function Some r -> r | None -> assert false)
  end
