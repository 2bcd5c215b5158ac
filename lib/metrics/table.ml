type align = Left | Right | Center

type row = Cells of string list | Separator

type t = {
  headers : string list;
  aligns : align array;
  mutable rows : row list;  (** reversed *)
  mutable nrows : int;
}

let create ?(align = []) headers =
  let n = List.length headers in
  if n = 0 then invalid_arg "Table.create: no headers";
  let aligns = Array.make n Right in
  List.iteri (fun i a -> if i < n then aligns.(i) <- a) align;
  { headers; aligns; rows = []; nrows = 0 }

let add_row t cells =
  if List.length cells <> List.length t.headers then
    invalid_arg "Table.add_row: arity mismatch";
  t.rows <- Cells cells :: t.rows;
  t.nrows <- t.nrows + 1

let add_separator t = t.rows <- Separator :: t.rows
let row_count t = t.nrows

let rows t =
  List.rev
    (List.filter_map
       (function Cells c -> Some c | Separator -> None)
       t.rows)

let to_json t =
  let strs l = Json.arr (List.map Json.str l) in
  Json.obj
    [ ("headers", strs t.headers); ("rows", Json.arr (List.map strs (rows t))) ]

let widths t =
  let n = List.length t.headers in
  let w = Array.make n 0 in
  let feed cells =
    List.iteri (fun i c -> w.(i) <- max w.(i) (String.length c)) cells
  in
  feed t.headers;
  List.iter (function Cells c -> feed c | Separator -> ()) t.rows;
  w

let pad align width s =
  let l = String.length s in
  if l >= width then s
  else
    let fill = width - l in
    match align with
    | Left -> s ^ String.make fill ' '
    | Right -> String.make fill ' ' ^ s
    | Center ->
      let lft = fill / 2 in
      String.make lft ' ' ^ s ^ String.make (fill - lft) ' '

let render t =
  let w = widths t in
  let buf = Buffer.create 512 in
  let line cells align_of =
    List.iteri
      (fun i c ->
        if i > 0 then Buffer.add_string buf "  ";
        Buffer.add_string buf (pad (align_of i) w.(i) c))
      cells;
    (* trim trailing padding for tidy diffs *)
    let s = Buffer.contents buf in
    Buffer.clear buf;
    Buffer.add_string buf
      (String.concat "" [ (let l = ref (String.length s) in
                           while !l > 0 && s.[!l - 1] = ' ' do decr l done;
                           String.sub s 0 !l) ]);
    Buffer.add_char buf '\n'
  in
  let out = Buffer.create 1024 in
  let emit_line cells align_of =
    line cells align_of;
    Buffer.add_buffer out buf;
    Buffer.clear buf
  in
  let rule () =
    let total =
      Array.fold_left ( + ) 0 w + (2 * (Array.length w - 1))
    in
    Buffer.add_string out (String.make total '-');
    Buffer.add_char out '\n'
  in
  emit_line t.headers (fun i -> t.aligns.(i));
  rule ();
  List.iter
    (function
      | Cells c -> emit_line c (fun i -> t.aligns.(i))
      | Separator -> rule ())
    (List.rev t.rows);
  Buffer.contents out

let csv_escape s =
  if String.exists (fun c -> c = ',' || c = '"' || c = '\n') s then
    "\"" ^ String.concat "\"\"" (String.split_on_char '"' s) ^ "\""
  else s

let render_csv t =
  let buf = Buffer.create 512 in
  let line cells =
    Buffer.add_string buf (String.concat "," (List.map csv_escape cells));
    Buffer.add_char buf '\n'
  in
  line t.headers;
  List.iter
    (function Cells c -> line c | Separator -> ())
    (List.rev t.rows);
  Buffer.contents buf

let render_markdown t =
  let w = widths t in
  let buf = Buffer.create 1024 in
  let line cells =
    Buffer.add_string buf "|";
    List.iteri
      (fun i c ->
        Buffer.add_char buf ' ';
        Buffer.add_string buf (pad t.aligns.(i) w.(i) c);
        Buffer.add_string buf " |")
      cells;
    Buffer.add_char buf '\n'
  in
  line t.headers;
  Buffer.add_string buf "|";
  Array.iteri
    (fun i width ->
      let dashes = String.make (max 3 width) '-' in
      let cell =
        match t.aligns.(i) with
        | Left -> ":" ^ dashes ^ " "
        | Right -> " " ^ dashes ^ ":"
        | Center -> ":" ^ dashes ^ ":"
      in
      Buffer.add_string buf cell;
      Buffer.add_string buf "|")
    w;
  Buffer.add_char buf '\n';
  List.iter
    (function Cells c -> line c | Separator -> ())
    (List.rev t.rows);
  Buffer.contents buf
