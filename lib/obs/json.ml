(* A deliberately small JSON tree: enough to emit Chrome trace-event
   files and BENCH_*.json snapshots, and to parse them back in tests.
   No external dependency (the container has no yojson). *)

type t =
  | Null
  | Bool of bool
  | Int of int
  | Float of float
  | Str of string
  | List of t list
  | Obj of (string * t) list

(* ------------------------------ rendering ----------------------------- *)

let escape buf s =
  String.iter
    (fun c ->
      match c with
      | '"' -> Buffer.add_string buf "\\\""
      | '\\' -> Buffer.add_string buf "\\\\"
      | '\n' -> Buffer.add_string buf "\\n"
      | '\r' -> Buffer.add_string buf "\\r"
      | '\t' -> Buffer.add_string buf "\\t"
      | c when Char.code c < 0x20 ->
          Buffer.add_string buf (Printf.sprintf "\\u%04x" (Char.code c))
      | c -> Buffer.add_char buf c)
    s

let float_repr f =
  if Float.is_integer f && Float.abs f < 1e15 then Printf.sprintf "%.1f" f
  else Printf.sprintf "%.17g" f

let rec write buf = function
  | Null -> Buffer.add_string buf "null"
  | Bool b -> Buffer.add_string buf (string_of_bool b)
  | Int i -> Buffer.add_string buf (string_of_int i)
  | Float f -> Buffer.add_string buf (float_repr f)
  | Str s ->
      Buffer.add_char buf '"';
      escape buf s;
      Buffer.add_char buf '"'
  | List items ->
      Buffer.add_char buf '[';
      List.iteri
        (fun i v ->
          if i > 0 then Buffer.add_char buf ',';
          write buf v)
        items;
      Buffer.add_char buf ']'
  | Obj fields ->
      Buffer.add_char buf '{';
      List.iteri
        (fun i (k, v) ->
          if i > 0 then Buffer.add_char buf ',';
          Buffer.add_char buf '"';
          escape buf k;
          Buffer.add_string buf "\":";
          write buf v)
        fields;
      Buffer.add_char buf '}'

let to_string v =
  let buf = Buffer.create 1024 in
  write buf v;
  Buffer.contents buf

(* ------------------------------- parsing ------------------------------ *)

exception Parse_error of string

let parse_error fmt = Printf.ksprintf (fun s -> raise (Parse_error s)) fmt

let parse_exn src =
  let n = String.length src in
  let pos = ref 0 in
  let peek () = if !pos < n then Some src.[!pos] else None in
  let advance () = incr pos in
  let rec skip_ws () =
    match peek () with
    | Some (' ' | '\t' | '\n' | '\r') ->
        advance ();
        skip_ws ()
    | _ -> ()
  in
  let expect c =
    match peek () with
    | Some c' when c' = c -> advance ()
    | Some c' -> parse_error "expected %c at %d, found %c" c !pos c'
    | None -> parse_error "expected %c at %d, found end of input" c !pos
  in
  let literal word v =
    if !pos + String.length word <= n
       && String.sub src !pos (String.length word) = word
    then begin
      pos := !pos + String.length word;
      v
    end
    else parse_error "bad literal at %d" !pos
  in
  let parse_string () =
    expect '"';
    let buf = Buffer.create 16 in
    let rec go () =
      match peek () with
      | None -> parse_error "unterminated string"
      | Some '"' -> advance ()
      | Some '\\' -> (
          advance ();
          match peek () with
          | Some '"' -> Buffer.add_char buf '"'; advance (); go ()
          | Some '\\' -> Buffer.add_char buf '\\'; advance (); go ()
          | Some '/' -> Buffer.add_char buf '/'; advance (); go ()
          | Some 'n' -> Buffer.add_char buf '\n'; advance (); go ()
          | Some 't' -> Buffer.add_char buf '\t'; advance (); go ()
          | Some 'r' -> Buffer.add_char buf '\r'; advance (); go ()
          | Some 'b' -> Buffer.add_char buf '\b'; advance (); go ()
          | Some 'f' -> Buffer.add_char buf '\012'; advance (); go ()
          | Some 'u' ->
              advance ();
              if !pos + 4 > n then parse_error "truncated \\u escape";
              let digit i =
                match src.[!pos + i] with
                | '0' .. '9' as c -> Char.code c - Char.code '0'
                | 'a' .. 'f' as c -> Char.code c - Char.code 'a' + 10
                | 'A' .. 'F' as c -> Char.code c - Char.code 'A' + 10
                | _ -> parse_error "bad \\u escape at %d" !pos
              in
              let code =
                (digit 0 lsl 12) lor (digit 1 lsl 8) lor (digit 2 lsl 4)
                lor digit 3
              in
              pos := !pos + 4;
              (* non-BMP characters are not produced by this library *)
              if code < 0x80 then Buffer.add_char buf (Char.chr code)
              else Buffer.add_string buf (Printf.sprintf "\\u%04x" code);
              go ()
          | _ -> parse_error "bad escape at %d" !pos)
      | Some c ->
          Buffer.add_char buf c;
          advance ();
          go ()
    in
    go ();
    Buffer.contents buf
  in
  let parse_number () =
    let start = !pos in
    let is_num_char = function
      | '0' .. '9' | '-' | '+' | '.' | 'e' | 'E' -> true
      | _ -> false
    in
    while (match peek () with Some c -> is_num_char c | None -> false) do
      advance ()
    done;
    let s = String.sub src start (!pos - start) in
    match int_of_string_opt s with
    | Some i -> Int i
    | None -> (
        match float_of_string_opt s with
        | Some f -> Float f
        | None -> parse_error "bad number %S at %d" s start)
  in
  let rec parse_value () =
    skip_ws ();
    match peek () with
    | None -> parse_error "unexpected end of input"
    | Some 'n' -> literal "null" Null
    | Some 't' -> literal "true" (Bool true)
    | Some 'f' -> literal "false" (Bool false)
    | Some '"' -> Str (parse_string ())
    | Some '[' ->
        advance ();
        skip_ws ();
        if peek () = Some ']' then begin advance (); List [] end
        else begin
          let items = ref [ parse_value () ] in
          skip_ws ();
          while peek () = Some ',' do
            advance ();
            items := parse_value () :: !items;
            skip_ws ()
          done;
          expect ']';
          List (List.rev !items)
        end
    | Some '{' ->
        advance ();
        skip_ws ();
        if peek () = Some '}' then begin advance (); Obj [] end
        else begin
          let field () =
            skip_ws ();
            let k = parse_string () in
            skip_ws ();
            expect ':';
            let v = parse_value () in
            k, v
          in
          let fields = ref [ field () ] in
          skip_ws ();
          while peek () = Some ',' do
            advance ();
            fields := field () :: !fields;
            skip_ws ()
          done;
          expect '}';
          Obj (List.rev !fields)
        end
    | Some c -> (
        match c with
        | '0' .. '9' | '-' -> parse_number ()
        | c -> parse_error "unexpected character %c at %d" c !pos)
  in
  let v = parse_value () in
  skip_ws ();
  if !pos <> n then parse_error "trailing input at %d" !pos;
  v

let parse src =
  match parse_exn src with
  | v -> Ok v
  | exception Parse_error msg -> Error msg

(* ------------------------------ accessors ----------------------------- *)

let member key = function
  | Obj fields -> List.assoc_opt key fields
  | _ -> None

let to_list = function List items -> Some items | _ -> None
let to_str = function Str s -> Some s | _ -> None

let to_number = function
  | Int i -> Some (float_of_int i)
  | Float f -> Some f
  | _ -> None

let human_bytes n =
  let f = float_of_int n in
  if n < 1024 then Printf.sprintf "%dB" n
  else if f < 1024. *. 1024. then Printf.sprintf "%.1fKB" (f /. 1024.)
  else if f < 1024. *. 1024. *. 1024. then
    Printf.sprintf "%.1fMB" (f /. (1024. *. 1024.))
  else Printf.sprintf "%.1fGB" (f /. (1024. *. 1024. *. 1024.))
