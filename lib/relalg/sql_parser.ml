open Sql_lexer

exception Parse_error of string

type cursor = { toks : token array; mutable pos : int }

let error fmt = Printf.ksprintf (fun s -> raise (Parse_error s)) fmt
let peek c = c.toks.(c.pos)
let advance c = c.pos <- c.pos + 1

let next c =
  let t = peek c in
  advance c;
  t

let expect c t =
  let got = next c in
  if got <> t then
    error "expected %s, got %s"
      (Format.asprintf "%a" pp_token t)
      (Format.asprintf "%a" pp_token got)

let expect_ident c =
  match next c with
  | IDENT s -> s
  | t -> error "expected identifier, got %s" (Format.asprintf "%a" pp_token t)

let accept c t = if peek c = t then (advance c; true) else false

(* ------------------------------------------------------------------ *)
(* Predicates                                                          *)
(* ------------------------------------------------------------------ *)

let literal c =
  match next c with
  | STRING s -> Value.Str s
  | INT i -> Value.Int i
  | FLOAT f -> Value.Float f
  | KW "NULL" -> Value.Null
  | KW "TRUE" -> Value.Bool true
  | KW "FALSE" -> Value.Bool false
  | t -> error "expected literal, got %s" (Format.asprintf "%a" pp_token t)

let operand c =
  match peek c with
  | IDENT s -> advance c; Expr.Col s
  | STRING _ | INT _ | FLOAT _ | KW ("NULL" | "TRUE" | "FALSE") ->
      Expr.Const (literal c)
  | t -> error "expected operand, got %s" (Format.asprintf "%a" pp_token t)

let literal_list c =
  expect c LPAREN;
  let rec go acc =
    let v = literal c in
    if accept c COMMA then go (v :: acc)
    else begin
      expect c RPAREN;
      List.rev (v :: acc)
    end
  in
  go []

let rec predicate c =
  let cond = or_expr c in
  if accept c QUESTION then begin
    let then_ = predicate c in
    expect c COLON;
    let else_ = predicate c in
    Expr.Ternary (cond, then_, else_)
  end
  else cond

and or_expr c =
  let left = and_expr c in
  if accept c (KW "OR") then Expr.Or (left, or_expr c) else left

and and_expr c =
  let left = not_expr c in
  if accept c (KW "AND") then Expr.And (left, and_expr c) else left

and not_expr c =
  if accept c (KW "NOT") then Expr.Not (not_expr c) else atom c

and atom c =
  match peek c with
  | LPAREN ->
      advance c;
      let p = predicate c in
      expect c RPAREN;
      p
  | KW "TRUE" -> advance c; Expr.True
  | KW "FALSE" -> advance c; Expr.False
  | IDENT name when c.toks.(c.pos + 1) = LPAREN ->
      (* Boolean function application, e.g. isrequest(inmsg). *)
      advance c;
      advance c;
      let arg = operand c in
      expect c RPAREN;
      Expr.Fn (name, arg)
  | _ ->
      let left = operand c in
      comparison c left

and comparison c left =
  match peek c with
  | EQ -> advance c; Expr.Eq (left, operand c)
  | NEQ -> advance c; Expr.Neq (left, operand c)
  | LT -> advance c; Expr.Cmp (Expr.Lt, left, operand c)
  | LE -> advance c; Expr.Cmp (Expr.Le, left, operand c)
  | GT -> advance c; Expr.Cmp (Expr.Gt, left, operand c)
  | GE -> advance c; Expr.Cmp (Expr.Ge, left, operand c)
  | KW "IN" -> advance c; Expr.In (left, literal_list c)
  | KW "NOT" ->
      advance c;
      expect c (KW "IN");
      Expr.Not (Expr.In (left, literal_list c))
  | t -> (
      (* No operator: a bare column is a boolean test, as in
         [WHERE NOT covered] over the sys.* telemetry tables. *)
      match left with
      | Expr.Col _ -> Expr.Eq (left, Expr.Const (Value.Bool true))
      | Expr.Const _ ->
          error "expected comparison operator, got %s"
            (Format.asprintf "%a" pp_token t))

(* ------------------------------------------------------------------ *)
(* Queries                                                             *)
(* ------------------------------------------------------------------ *)

let count_star_ahead c =
  match peek c with
  | IDENT id ->
      String.lowercase_ascii id = "count" && c.toks.(c.pos + 1) = LPAREN
  | _ -> false

let eat_count_star c =
  advance c;
  advance c;
  expect c STAR;
  expect c RPAREN

(* A result schema names each column once: reject a projection that
   would name one twice (a grouped count adds a [count] column). *)
let rec check_distinct seen = function
  | [] -> ()
  | col :: rest ->
      if List.mem col seen then error "column %s is projected twice" col;
      check_distinct (col :: seen) rest

let select_columns c =
  if accept c STAR then Sql_ast.Star
  else if count_star_ahead c then begin
    eat_count_star c;
    Sql_ast.Count
  end
  else
    let rec go acc =
      if count_star_ahead c then begin
        (* trailing COUNT star: a grouped aggregate *)
        eat_count_star c;
        check_distinct [] ("count" :: acc);
        Sql_ast.Group_count (List.rev acc)
      end
      else
        let col = expect_ident c in
        if accept c COMMA then go (col :: acc)
        else begin
          check_distinct [] (col :: acc);
          Sql_ast.Columns (List.rev (col :: acc))
        end
    in
    go []

let rec query c =
  let left = simple_query c in
  match peek c with
  | KW "UNION" -> advance c; Sql_ast.Union (left, query c)
  | KW "EXCEPT" -> advance c; Sql_ast.Except (left, query c)
  | KW "INTERSECT" -> advance c; Sql_ast.Intersect (left, query c)
  | _ -> left

and simple_query c =
  match peek c with
  | LPAREN ->
      advance c;
      let q = query c in
      expect c RPAREN;
      q
  | KW "SELECT" ->
      advance c;
      let distinct = accept c (KW "DISTINCT") in
      let columns = select_columns c in
      expect c (KW "FROM");
      let from = expect_ident c in
      let where = if accept c (KW "WHERE") then Some (predicate c) else None in
      (match columns with
      | Sql_ast.Group_count cols ->
          expect c (KW "GROUP");
          expect c (KW "BY");
          let rec keys acc =
            let k = expect_ident c in
            if accept c COMMA then keys (k :: acc) else List.rev (k :: acc)
          in
          let by = keys [] in
          if by <> cols then
            error "GROUP BY keys (%s) must match the projected columns (%s)"
              (String.concat ", " by) (String.concat ", " cols)
      | Sql_ast.Star | Sql_ast.Columns _ | Sql_ast.Count -> ());
      let order_by =
        if accept c (KW "ORDER") then begin
          expect c (KW "BY");
          let rec keys acc =
            let col = expect_ident c in
            let dir =
              if accept c (KW "DESC") then Sql_ast.Desc
              else begin
                ignore (accept c (KW "ASC"));
                Sql_ast.Asc
              end
            in
            if accept c COMMA then keys ((col, dir) :: acc)
            else List.rev ((col, dir) :: acc)
          in
          keys []
        end
        else []
      in
      let limit =
        if accept c (KW "LIMIT") then
          match next c with
          | INT n when n >= 0 -> Some n
          | t ->
              error "expected row count after LIMIT, got %s"
                (Format.asprintf "%a" pp_token t)
        else None
      in
      Sql_ast.Select { distinct; columns; from; where; order_by; limit }
  | t -> error "expected SELECT, got %s" (Format.asprintf "%a" pp_token t)

(* ------------------------------------------------------------------ *)
(* Statements                                                          *)
(* ------------------------------------------------------------------ *)

let tuple_rows c =
  let rec go acc =
    let row = literal_list c in
    if accept c COMMA then go (row :: acc) else List.rev (row :: acc)
  in
  go []

let statement c =
  match peek c with
  | KW "CREATE" ->
      advance c;
      expect c (KW "TABLE");
      let name = expect_ident c in
      expect c (KW "AS");
      Sql_ast.Create_table_as (name, query c)
  | KW "INSERT" ->
      advance c;
      expect c (KW "INTO");
      let name = expect_ident c in
      expect c (KW "VALUES");
      Sql_ast.Insert (name, tuple_rows c)
  | KW "DROP" ->
      advance c;
      expect c (KW "TABLE");
      Sql_ast.Drop_table (expect_ident c)
  | _ -> Sql_ast.Query (query c)

let finish c =
  ignore (accept c SEMI);
  match peek c with
  | EOF -> ()
  | t -> error "trailing input at %s" (Format.asprintf "%a" pp_token t)

let cursor_of src = { toks = Array.of_list (tokenize src); pos = 0 }

let parse_statement src =
  let c = cursor_of src in
  let s = statement c in
  finish c;
  s

let parse_query src =
  let c = cursor_of src in
  let q = query c in
  finish c;
  q

let parse_predicate src =
  let c = cursor_of src in
  let p = predicate c in
  finish c;
  p
