type token =
  | IDENT of string
  | STRING of string
  | INT of int
  | FLOAT of float
  | KW of string
  | LPAREN
  | RPAREN
  | COMMA
  | STAR
  | EQ
  | NEQ
  | LT
  | LE
  | GT
  | GE
  | QUESTION
  | COLON
  | SEMI
  | EOF

exception Lex_error of { pos : int; message : string }

let keywords =
  [
    "SELECT"; "DISTINCT"; "FROM"; "WHERE"; "AND"; "OR"; "NOT"; "IN"; "CREATE";
    "TABLE"; "AS"; "INSERT"; "INTO"; "VALUES"; "UNION"; "EXCEPT"; "INTERSECT";
    "NULL"; "TRUE"; "FALSE"; "DROP"; "EMPTY"; "GROUP"; "BY"; "ORDER";
    "LIMIT"; "ASC"; "DESC";
  ]

let is_ident_start c = (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z') || c = '_'

let is_ident_char c =
  is_ident_start c || (c >= '0' && c <= '9') || c = '.'

let is_digit c = c >= '0' && c <= '9'

let tokenize src =
  let n = String.length src in
  let toks = ref [] in
  let emit t = toks := t :: !toks in
  let error pos message = raise (Lex_error { pos; message }) in
  let rec skip i = if i < n && (src.[i] = ' ' || src.[i] = '\t' || src.[i] = '\n' || src.[i] = '\r') then skip (i + 1) else i in
  let rec go i =
    let i = skip i in
    if i >= n then emit EOF
    else
      let c = src.[i] in
      if is_ident_start c then begin
        let j = ref i in
        while !j < n && is_ident_char src.[!j] do incr j done;
        let word = String.sub src i (!j - i) in
        let upper = String.uppercase_ascii word in
        if List.mem upper keywords then emit (KW upper) else emit (IDENT word);
        go !j
      end
      else if is_digit c then begin
        let j = ref i in
        while !j < n && is_digit src.[!j] do incr j done;
        if !j < n && src.[!j] = '.' && !j + 1 < n && is_digit src.[!j + 1]
        then begin
          incr j;
          while !j < n && is_digit src.[!j] do incr j done;
          emit (FLOAT (float_of_string (String.sub src i (!j - i))))
        end
        else begin
          match int_of_string_opt (String.sub src i (!j - i)) with
          | Some k -> emit (INT k)
          | None -> error i "integer literal out of range"
        end;
        go !j
      end
      else
        match c with
        | '\'' ->
            let buf = Buffer.create 16 in
            let rec str j =
              if j >= n then error i "unterminated string literal"
              else if src.[j] = '\'' then
                if j + 1 < n && src.[j + 1] = '\'' then begin
                  Buffer.add_char buf '\'';
                  str (j + 2)
                end
                else j + 1
              else begin
                Buffer.add_char buf src.[j];
                str (j + 1)
              end
            in
            let j = str (i + 1) in
            emit (STRING (Buffer.contents buf));
            go j
        | '"' ->
            (* The paper's examples quote constants with double quotes;
               accept them as string literals too. *)
            let rec str j =
              if j >= n then error i "unterminated string literal" else
              if src.[j] = '"' then j else str (j + 1)
            in
            let j = str (i + 1) in
            emit (STRING (String.sub src (i + 1) (j - i - 1)));
            go (j + 1)
        | '(' -> emit LPAREN; go (i + 1)
        | ')' -> emit RPAREN; go (i + 1)
        | ',' -> emit COMMA; go (i + 1)
        | '*' -> emit STAR; go (i + 1)
        | '=' -> emit EQ; go (i + 1)
        | '?' -> emit QUESTION; go (i + 1)
        | ':' -> emit COLON; go (i + 1)
        | ';' -> emit SEMI; go (i + 1)
        | '<' when i + 1 < n && src.[i + 1] = '>' -> emit NEQ; go (i + 2)
        | '!' when i + 1 < n && src.[i + 1] = '=' -> emit NEQ; go (i + 2)
        | '<' when i + 1 < n && src.[i + 1] = '=' -> emit LE; go (i + 2)
        | '>' when i + 1 < n && src.[i + 1] = '=' -> emit GE; go (i + 2)
        | '<' -> emit LT; go (i + 1)
        | '>' -> emit GT; go (i + 1)
        | _ -> error i (Printf.sprintf "illegal character %C" c)
  in
  go 0;
  List.rev !toks

let pp_token fmt = function
  | IDENT s -> Format.fprintf fmt "ident %s" s
  | STRING s -> Format.fprintf fmt "string %S" s
  | INT i -> Format.fprintf fmt "int %d" i
  | FLOAT f -> Format.fprintf fmt "float %s" (Value.float_repr f)
  | KW k -> Format.pp_print_string fmt k
  | LPAREN -> Format.pp_print_string fmt "("
  | RPAREN -> Format.pp_print_string fmt ")"
  | COMMA -> Format.pp_print_string fmt ","
  | STAR -> Format.pp_print_string fmt "*"
  | EQ -> Format.pp_print_string fmt "="
  | NEQ -> Format.pp_print_string fmt "<>"
  | LT -> Format.pp_print_string fmt "<"
  | LE -> Format.pp_print_string fmt "<="
  | GT -> Format.pp_print_string fmt ">"
  | GE -> Format.pp_print_string fmt ">="
  | QUESTION -> Format.pp_print_string fmt "?"
  | COLON -> Format.pp_print_string fmt ":"
  | SEMI -> Format.pp_print_string fmt ";"
  | EOF -> Format.pp_print_string fmt "<eof>"
