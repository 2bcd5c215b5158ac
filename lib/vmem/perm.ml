type t = { read : bool; write : bool; exec : bool }

let none = { read = false; write = false; exec = false }
let r = { read = true; write = false; exec = false }
let rw = { read = true; write = true; exec = false }
let rx = { read = true; write = false; exec = true }
let rwx = { read = true; write = true; exec = true }

let allows granted requested =
  ((not requested.read) || granted.read)
  && ((not requested.write) || granted.write)
  && ((not requested.exec) || granted.exec)

let union a b =
  { read = a.read || b.read;
    write = a.write || b.write;
    exec = a.exec || b.exec }

let inter a b =
  { read = a.read && b.read;
    write = a.write && b.write;
    exec = a.exec && b.exec }

let equal a b = a = b

let to_string t =
  let c flag ch = if flag then ch else '-' in
  let b = Bytes.create 3 in
  Bytes.set b 0 (c t.read 'r');
  Bytes.set b 1 (c t.write 'w');
  Bytes.set b 2 (c t.exec 'x');
  Bytes.to_string b
