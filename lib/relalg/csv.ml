exception Csv_error of { line : int; message : string }

let needs_quoting s =
  String.exists (fun c -> c = ',' || c = '"' || c = '\n' || c = '\r') s

let render_cell = function
  | Value.Null -> "NULL"
  | Value.Int i -> string_of_int i
  | Value.Bool b -> string_of_bool b
  | Value.Float f -> Value.to_string (Value.Float f)
  | Value.Str s ->
      if needs_quoting s || s = "NULL" || s = "" then
        "\"" ^ String.concat "\"\"" (String.split_on_char '"' s) ^ "\""
      else s

let parse_cell s =
  match s with
  | "" | "NULL" -> Value.Null
  | "true" -> Value.Bool true
  | "false" -> Value.Bool false
  | _ -> (
      match int_of_string_opt s with
      | Some i -> Value.Int i
      | None -> (
          (* only dotted numerals parse as floats, so symbolic constants
             like "nan" or "infinity" stay strings *)
          match
            if String.contains s '.' then float_of_string_opt s else None
          with
          | Some f -> Value.Float f
          | None -> Value.Str s))

let to_string t =
  let buf = Buffer.create 1024 in
  let emit_line cells =
    Buffer.add_string buf (String.concat "," cells);
    Buffer.add_char buf '\n'
  in
  emit_line (Schema.columns (Table.schema t));
  (* Render each dictionary entry once; emitting a cell is then an array
     lookup on its code instead of a fresh Value rendering per row. *)
  let arity = Table.arity t in
  let rendered =
    Array.init arity (fun j ->
        let d = Table.dict t j in
        Array.init (Dict.size d) (fun c -> render_cell (Dict.value d c)))
  in
  let codes = Array.init arity (Table.codes t) in
  for i = 0 to Table.cardinality t - 1 do
    emit_line
      (List.init arity (fun j -> rendered.(j).(codes.(j).(i))))
  done;
  Buffer.contents buf

(* RFC-4180-style splitting: returns the records of the document, each
   the file line it starts on and its cells (quotes resolved).  A quoted
   cell may span lines, so a record's line is not its index + 1.  A
   blank line outside quotes is no record ([to_string] never writes
   one: NULL renders as [NULL] and the empty string quoted), so a file
   ending in an editor's blank line still reads. *)
let records src =
  let n = String.length src in
  let cell = Buffer.create 16 in
  let row = ref [] in
  let rows = ref [] in
  let line = ref 1 in
  let start = ref 1 in
  let quoted_cell = ref false in
  let flush_cell () =
    let raw = Buffer.contents cell in
    Buffer.clear cell;
    let value = if !quoted_cell then Value.Str raw else parse_cell raw in
    quoted_cell := false;
    row := value :: !row
  in
  let flush_row () =
    flush_cell ();
    rows := (!start, List.rev !row) :: !rows;
    row := [];
    start := !line
  in
  let blank () = !row = [] && Buffer.length cell = 0 && not !quoted_cell in
  let rec plain i =
    if i >= n then (if not (blank ()) then flush_row ())
    else
      match src.[i] with
      | ',' -> flush_cell (); plain (i + 1)
      | '\n' ->
          incr line;
          if blank () then start := !line else flush_row ();
          plain (i + 1)
      | '\r' -> plain (i + 1)
      | '"' when Buffer.length cell = 0 ->
          quoted_cell := true;
          quoted (i + 1)
      | c -> Buffer.add_char cell c; plain (i + 1)
  and quoted i =
    if i >= n then raise (Csv_error { line = !line; message = "unterminated quote" })
    else
      match src.[i] with
      | '"' when i + 1 < n && src.[i + 1] = '"' ->
          Buffer.add_char cell '"';
          quoted (i + 2)
      | '"' -> plain (i + 1)
      | '\n' ->
          incr line;
          Buffer.add_char cell '\n';
          quoted (i + 1)
      | c -> Buffer.add_char cell c; quoted (i + 1)
  in
  plain 0;
  List.rev !rows

let of_string_lines ~name src =
  match records src with
  | [] -> raise (Csv_error { line = 1; message = "empty document" })
  | (header_line, header) :: rest ->
      let columns =
        List.mapi
          (fun i -> function
            | Value.Str "" | Value.Null ->
                raise
                  (Csv_error
                     {
                       line = header_line;
                       message = Printf.sprintf "column %d has no name" (i + 1);
                     })
            | Value.Str s -> s
            | v -> Value.to_string v)
          header
      in
      let schema =
        try Schema.of_list columns
        with Schema.Duplicate_column c ->
          raise
            (Csv_error
               { line = header_line; message = Printf.sprintf "duplicate column %S" c })
      in
      let arity = Schema.arity schema in
      let rows =
        List.map
          (fun (line, cells) ->
            if List.length cells <> arity then
              raise
                (Csv_error
                   {
                     line;
                     message =
                       Printf.sprintf "expected %d cells, got %d" arity
                         (List.length cells);
                   });
            Row.of_list cells)
          rest
      in
      (Table.of_rows ~name schema rows, Array.of_list (List.map fst rest))

let of_string ~name src = fst (of_string_lines ~name src)

let save ~filename t =
  let oc = open_out filename in
  Fun.protect
    ~finally:(fun () -> close_out oc)
    (fun () -> output_string oc (to_string t))
