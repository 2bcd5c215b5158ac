type t = {
  name : string;
  text_bytes : int;
  data_bytes : int;
  main : argv:string list -> unit -> unit;
}

let make ?(text_kib = 64) ?(data_kib = 16) ~name main =
  if name = "" then invalid_arg "Program.make: empty name";
  if text_kib < 0 || data_kib < 0 then invalid_arg "Program.make: negative size";
  { name; text_bytes = text_kib * 1024; data_bytes = data_kib * 1024; main }

let pages bytes = (bytes + Vmem.Addr.page_size - 1) / Vmem.Addr.page_size
let text_pages t = pages t.text_bytes
let data_pages t = pages t.data_bytes
