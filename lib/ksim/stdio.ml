(* Layout: an 8-byte little-endian length word at [base], an 8-byte
   owner-pid word at [base + 8] (the process that buffered the current
   contents), then [bufsize] data bytes at [base + 16]. State lives
   entirely in simulated memory so fork clones it — including the owner
   pid, which is how a flush can tell it is writing out another
   process's bytes. *)

type t = { fd : Types.fd; base : int; bufsize : int }

let word_len = 8
let header_len = 2 * word_len

let encode_word n =
  String.init word_len (fun i -> Char.chr ((n lsr (8 * i)) land 0xff))

let decode_word s =
  let rec go i acc =
    if i < 0 then acc else go (i - 1) ((acc lsl 8) lor Char.code s.[i])
  in
  go (word_len - 1) 0

let fopen ?(bufsize = 4096) fd =
  if bufsize <= 0 then Error Errno.EINVAL
  else
    match Api.mmap ~len:(header_len + bufsize) ~perm:Vmem.Perm.rw with
    | Error e -> Error e
    | Ok base -> (
      match
        Api.mem_write ~addr:base
          (encode_word 0 ^ encode_word (Api.getpid ()))
      with
      | Error e -> Error e
      | Ok () -> Ok { fd; base; bufsize })

let buffered t =
  Result.map decode_word (Api.mem_read ~addr:t.base ~len:word_len)

let set_buffered t n = Api.mem_write ~addr:t.base (encode_word n)

let owner t =
  Result.map decode_word
    (Api.mem_read ~addr:(t.base + word_len) ~len:word_len)

let set_owner t pid = Api.mem_write ~addr:(t.base + word_len) (encode_word pid)

let flush t =
  match buffered t with
  | Error e -> Error e
  | Ok 0 -> Ok ()
  | Ok n -> (
    match Api.mem_read ~addr:(t.base + header_len) ~len:n with
    | Error e -> Error e
    | Ok data -> (
      match Api.write_all t.fd data with
      | Error _ as e -> e
      | Ok () ->
        let inherited =
          match owner t with
          | Ok who when who <> Api.getpid () -> n
          | Ok _ | Error _ -> 0
        in
        Effect.perform
          (Sysreq.Sys (Sysreq.Stdio_flushed { bytes = n; inherited }));
        set_buffered t 0))

let rec puts t s =
  if s = "" then Ok ()
  else
    match buffered t with
    | Error e -> Error e
    | Ok used ->
      let space = t.bufsize - used in
      let n = min space (String.length s) in
      if n = 0 then
        match flush t with Error e -> Error e | Ok () -> puts t s
      else begin
        (* first bytes into an empty buffer claim it for this process *)
        match
          if used = 0 then set_owner t (Api.getpid ()) else Ok ()
        with
        | Error e -> Error e
        | Ok () -> (
          match
            Api.mem_write ~addr:(t.base + header_len + used) (String.sub s 0 n)
          with
          | Error e -> Error e
          | Ok () -> (
            match set_buffered t (used + n) with
            | Error e -> Error e
            | Ok () ->
              let rest = String.sub s n (String.length s - n) in
              if rest = "" then Ok () else puts t rest))
      end
