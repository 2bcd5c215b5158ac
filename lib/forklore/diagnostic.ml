type severity = Error | Warn | Info

let severity_name = function Error -> "error" | Warn -> "warn" | Info -> "info"

let severity_of_name = function
  | "error" -> Some Error
  | "warn" -> Some Warn
  | "info" -> Some Info
  | _ -> None

let severity_rank = function Error -> 0 | Warn -> 1 | Info -> 2

type t = {
  rule : string;
  severity : severity;
  file : string;
  line : int;
  col : int;
  message : string;
  citation : string;
  hint : string;
}

let compare a b =
  let c = String.compare a.file b.file in
  if c <> 0 then c
  else
    let c = Int.compare a.line b.line in
    if c <> 0 then c
    else
      let c = Int.compare a.col b.col in
      if c <> 0 then c
      else
        let c = Int.compare (severity_rank a.severity) (severity_rank b.severity) in
        if c <> 0 then c else String.compare a.rule b.rule

let equal a b = a = b
let is_error d = d.severity = Error

let count sev ds = List.length (List.filter (fun d -> d.severity = sev) ds)

let pp ppf d =
  Format.fprintf ppf "%s:%d:%d: %s [%s] %s@\n    paper: %s@\n    hint: %s"
    d.file d.line d.col
    (severity_name d.severity)
    d.rule d.message d.citation d.hint

(* ------------------------------------------------------------------ *)
(* JSON (SARIF-flavoured, hand-rolled: no json dependency in the tree) *)

let json_escape s =
  let buf = Buffer.create (String.length s + 8) in
  String.iter
    (fun c ->
      match c with
      | '"' -> Buffer.add_string buf "\\\""
      | '\\' -> Buffer.add_string buf "\\\\"
      | '\n' -> Buffer.add_string buf "\\n"
      | '\t' -> Buffer.add_string buf "\\t"
      | '\r' -> Buffer.add_string buf "\\r"
      | c when Char.code c < 0x20 ->
        Buffer.add_string buf (Printf.sprintf "\\u%04x" (Char.code c))
      | c -> Buffer.add_char buf c)
    s;
  Buffer.contents buf

let to_json d =
  Printf.sprintf
    "{\"rule\":\"%s\",\"severity\":\"%s\",\"file\":\"%s\",\"line\":%d,\"col\":%d,\"message\":\"%s\",\"citation\":\"%s\",\"hint\":\"%s\"}"
    (json_escape d.rule)
    (severity_name d.severity)
    (json_escape d.file) d.line d.col (json_escape d.message)
    (json_escape d.citation) (json_escape d.hint)

let report_to_json ds =
  let ds = List.sort compare ds in
  let buf = Buffer.create 1024 in
  Buffer.add_string buf "{\n  \"tool\": \"forklint\",\n  \"version\": \"1\",\n";
  Buffer.add_string buf "  \"findings\": [";
  List.iteri
    (fun i d ->
      if i > 0 then Buffer.add_char buf ',';
      Buffer.add_string buf "\n    ";
      Buffer.add_string buf (to_json d))
    ds;
  if ds <> [] then Buffer.add_string buf "\n  ";
  Buffer.add_string buf "],\n";
  Buffer.add_string buf
    (Printf.sprintf
       "  \"summary\": {\"error\": %d, \"warn\": %d, \"info\": %d}\n}\n"
       (count Error ds) (count Warn ds) (count Info ds));
  Buffer.contents buf

(* A tiny recursive-descent parser for the subset of JSON the emitter
   above produces (objects, arrays, strings, non-negative integers), so
   reports round-trip without adding a dependency. *)

type jv =
  | Jobj of (string * jv) list
  | Jarr of jv list
  | Jstr of string
  | Jint of int

exception Bad of string

let parse_json s =
  let n = String.length s in
  let i = ref 0 in
  let fail msg = raise (Bad (Printf.sprintf "%s at offset %d" msg !i)) in
  let skip_ws () =
    while
      !i < n && (s.[!i] = ' ' || s.[!i] = '\n' || s.[!i] = '\t' || s.[!i] = '\r')
    do
      incr i
    done
  in
  let expect c =
    skip_ws ();
    if !i < n && s.[!i] = c then incr i
    else fail (Printf.sprintf "expected '%c'" c)
  in
  let parse_string () =
    expect '"';
    let buf = Buffer.create 16 in
    let rec go () =
      if !i >= n then fail "unterminated string"
      else
        match s.[!i] with
        | '"' -> incr i
        | '\\' ->
          if !i + 1 >= n then fail "dangling escape";
          (match s.[!i + 1] with
          | '"' -> Buffer.add_char buf '"'
          | '\\' -> Buffer.add_char buf '\\'
          | '/' -> Buffer.add_char buf '/'
          | 'n' -> Buffer.add_char buf '\n'
          | 't' -> Buffer.add_char buf '\t'
          | 'r' -> Buffer.add_char buf '\r'
          | 'b' -> Buffer.add_char buf '\b'
          | 'f' -> Buffer.add_char buf '\012'
          | 'u' ->
            if !i + 5 >= n then fail "short \\u escape";
            let hex = String.sub s (!i + 2) 4 in
            let code =
              try int_of_string ("0x" ^ hex) with _ -> fail "bad \\u escape"
            in
            if code < 0x80 then Buffer.add_char buf (Char.chr code)
            else Buffer.add_char buf '?';
            i := !i + 4
          | _ -> fail "unknown escape");
          i := !i + 2;
          go ()
        | c ->
          Buffer.add_char buf c;
          incr i;
          go ()
    in
    go ();
    Buffer.contents buf
  in
  let rec parse_value () =
    skip_ws ();
    if !i >= n then fail "unexpected end of input"
    else
      match s.[!i] with
      | '{' ->
        incr i;
        skip_ws ();
        if !i < n && s.[!i] = '}' then begin
          incr i;
          Jobj []
        end
        else begin
          let fields = ref [] in
          let rec members () =
            let key = (skip_ws (); parse_string ()) in
            expect ':';
            let v = parse_value () in
            fields := (key, v) :: !fields;
            skip_ws ();
            if !i < n && s.[!i] = ',' then begin
              incr i;
              members ()
            end
            else expect '}'
          in
          members ();
          Jobj (List.rev !fields)
        end
      | '[' ->
        incr i;
        skip_ws ();
        if !i < n && s.[!i] = ']' then begin
          incr i;
          Jarr []
        end
        else begin
          let items = ref [] in
          let rec elements () =
            let v = parse_value () in
            items := v :: !items;
            skip_ws ();
            if !i < n && s.[!i] = ',' then begin
              incr i;
              elements ()
            end
            else expect ']'
          in
          elements ();
          Jarr (List.rev !items)
        end
      | '"' -> Jstr (parse_string ())
      | c when c = '-' || (c >= '0' && c <= '9') ->
        let start = !i in
        if s.[!i] = '-' then incr i;
        while !i < n && s.[!i] >= '0' && s.[!i] <= '9' do
          incr i
        done;
        Jint (int_of_string (String.sub s start (!i - start)))
      | _ -> fail "unexpected character"
  in
  let v = parse_value () in
  skip_ws ();
  if !i <> n then fail "trailing garbage";
  v

let jfield key = function
  | Jobj fields -> List.assoc_opt key fields
  | _ -> None

let jstr = function Some (Jstr s) -> Some s | _ -> None
let jint = function Some (Jint n) -> Some n | _ -> None

let of_json_finding jv =
  match
    ( jstr (jfield "rule" jv),
      Option.bind (jstr (jfield "severity" jv)) severity_of_name,
      jstr (jfield "file" jv),
      jint (jfield "line" jv),
      jint (jfield "col" jv),
      jstr (jfield "message" jv),
      jstr (jfield "citation" jv),
      jstr (jfield "hint" jv) )
  with
  | ( Some rule,
      Some severity,
      Some file,
      Some line,
      Some col,
      Some message,
      Some citation,
      Some hint ) ->
    Stdlib.Ok { rule; severity; file; line; col; message; citation; hint }
  | _ -> Stdlib.Error "finding object missing or ill-typed field"

let report_of_json s =
  match parse_json s with
  | exception Bad msg -> Stdlib.Error msg
  | jv -> (
    match jfield "findings" jv with
    | Some (Jarr items) ->
      let rec go acc = function
        | [] -> Stdlib.Ok (List.rev acc)
        | item :: rest -> (
          match of_json_finding item with
          | Stdlib.Ok d -> go (d :: acc) rest
          | Stdlib.Error e -> Stdlib.Error e)
      in
      go [] items
    | Some _ -> Stdlib.Error "\"findings\" is not an array"
    | None -> Stdlib.Error "no \"findings\" field")
