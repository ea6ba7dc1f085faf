(* The SQL front end: lexer, parser, executor. *)

open Relalg

let check = Alcotest.(check bool)
let check_int = Alcotest.(check int)

let db =
  let d =
    Table.of_rows ~name:"D"
      (Schema.of_list [ "inmsg"; "dirst"; "dirpv"; "locmsg" ])
      (List.map Row.strings
         [
           [ "readex"; "SI"; "one"; "-" ];
           [ "readex"; "SI"; "gone"; "-" ];
           [ "readex"; "I"; "zero"; "-" ];
           [ "idone"; "Busy"; "one"; "datax" ];
         ])
  in
  (* replace the "-" placeholders with real NULLs *)
  let d =
    Table.map_rows
      (fun r ->
        Array.map (fun v -> if Value.equal v (Value.str "-") then Value.Null else v) r)
      d
  in
  let db = Database.add Database.empty d in
  Database.register_function db "isrequest" (fun v ->
      Value.equal v (Value.str "readex"))

let q src = Sql_exec.query db src

let test_lexer () =
  let toks = Sql_lexer.tokenize "SELECT a, b FROM t WHERE a = 'x y'" in
  check_int "token count" 11 (List.length toks);
  check "keywords case-insensitive" true
    (Sql_lexer.tokenize "select" = Sql_lexer.tokenize "SELECT");
  check "double-quoted accepted" true
    (List.mem (Sql_lexer.STRING "MESI") (Sql_lexer.tokenize "x = \"MESI\""));
  check "escaped quote" true
    (List.mem (Sql_lexer.STRING "o'brien") (Sql_lexer.tokenize "'o''brien'"));
  check "lex error" true
    (try ignore (Sql_lexer.tokenize "a @ b"); false
     with Sql_lexer.Lex_error _ -> true);
  (* a literal beyond the native int range, not an escaping [Failure] *)
  check "int overflow at the literal's offset" true
    (match Sql_lexer.tokenize "SELECT * FROM D LIMIT 99999999999999999999999" with
     | _ -> false
     | exception Sql_lexer.Lex_error { pos; message } ->
         pos = 22 && message = "integer literal out of range")

let test_select_where () =
  check_int "filter by literal" 3
    (Table.cardinality (q "SELECT inmsg FROM D WHERE inmsg = 'readex'"));
  check_int "in list" 2
    (Table.cardinality (q "SELECT dirpv FROM D WHERE dirpv IN ('one')"));
  check_int "neq" 1
    (Table.cardinality (q "SELECT inmsg FROM D WHERE NOT inmsg = 'readex'"));
  check_int "star" 4 (Table.cardinality (q "SELECT * FROM D"))

let test_distinct () =
  check_int "distinct collapses" 1
    (Table.cardinality (q "SELECT DISTINCT inmsg FROM D WHERE inmsg = 'readex'"))

let test_null_and_functions () =
  check_int "null comparison" 3
    (Table.cardinality (q "SELECT inmsg FROM D WHERE locmsg = NULL"));
  check_int "registered function" 3
    (Table.cardinality (q "SELECT inmsg FROM D WHERE isrequest(inmsg)"))

let test_ternary_where () =
  (* the paper's constraint syntax is usable in WHERE clauses: readex rows
     must be in SI (2 rows), all other rows must have pv one (1 row) *)
  check_int "ternary" 3
    (Table.cardinality
       (q "SELECT inmsg FROM D WHERE inmsg = 'readex' ? dirst = 'SI' : dirpv = 'one'"));
  check_int "ternary excludes readex at I" 0
    (Table.cardinality
       (q "SELECT inmsg FROM D WHERE dirst = 'I' AND (inmsg = 'readex' ? dirst = 'SI' : dirpv = 'one')"))

let test_set_operators () =
  check_int "union" 2
    (Table.cardinality
       (q "SELECT DISTINCT inmsg FROM D UNION SELECT DISTINCT inmsg FROM D WHERE inmsg = 'idone'"));
  check_int "except" 1
    (Table.cardinality
       (q "SELECT DISTINCT inmsg FROM D EXCEPT SELECT inmsg FROM D WHERE inmsg = 'readex'"));
  check_int "intersect" 1
    (Table.cardinality
       (q "SELECT DISTINCT inmsg FROM D INTERSECT SELECT inmsg FROM D WHERE isrequest(inmsg)"))

(* Set operands that are not union-compatible are one schema error
   naming the operator and both column lists, from the engine and from
   the reference alike, also when the optimizer can tell an operand is
   empty. *)
let test_incompatible_operands op () =
  let error run =
    match run () with
    | _ -> "no error"
    | exception Schema.Incompatible_schemas msg -> msg
  in
  let want =
    op ^ " operands are not union-compatible: (inmsg) vs (inmsg, dirst)"
  in
  List.iter
    (fun (left, right) ->
      let src =
        Printf.sprintf "SELECT inmsg FROM D%s %s SELECT inmsg, dirst FROM D%s"
          left op right
      in
      Alcotest.(check string) ("engine: " ^ src) want (error (fun () -> q src));
      Alcotest.(check string) ("reference: " ^ src) want
        (error (fun () ->
             Sql_exec.run_query_reference db (Sql_parser.parse_query src))))
    [ ("", ""); (" LIMIT 0", ""); ("", " LIMIT 0") ]

(* A set operation over two base tables never interns into their
   dictionaries: every column of D and M keeps its dictionary size,
   and the engine's answer is the reference's, row for row. *)
let test_set_ops_leave_inputs () =
  let pdb = Protocol.database () in
  let sizes () =
    List.map (fun name -> Table.dict_sizes (Database.find pdb name)) [ "D"; "M" ]
  in
  let before = sizes () in
  List.iter
    (fun op ->
      let src = Printf.sprintf "SELECT inmsg FROM D %s SELECT inmsg FROM M" op in
      let got = Sql_exec.query pdb src in
      let want = Sql_exec.run_query_reference pdb (Sql_parser.parse_query src) in
      check (op ^ ": reference rows") true (Table.rows got = Table.rows want);
      check (op ^ ": dictionary sizes unchanged") true (sizes () = before))
    [ "UNION"; "EXCEPT"; "INTERSECT" ]

let test_create_insert_drop () =
  let db, _ = Sql_exec.exec db "CREATE TABLE V AS SELECT DISTINCT inmsg FROM D" in
  check_int "create table as" 2 (Table.cardinality (Database.find db "V"));
  let db, _ = Sql_exec.exec db "INSERT INTO V VALUES ('wb'), ('flush')" in
  check_int "insert" 4 (Table.cardinality (Database.find db "V"));
  let db, _ = Sql_exec.exec db "DROP TABLE V" in
  check "dropped" false (Database.mem db "V")

let test_is_empty () =
  check "violating query empty" true
    (Sql_exec.is_empty db
       "SELECT dirst FROM D WHERE dirst = 'SI' AND NOT dirpv IN ('one','gone')");
  check "non-empty detected" false
    (Sql_exec.is_empty db "SELECT dirst FROM D WHERE dirst = 'SI'")

let test_errors () =
  check "unknown table" true
    (try ignore (q "SELECT a FROM nosuch"); false
     with Sql_exec.Exec_error _ -> true);
  check "parse error" true
    (try ignore (Sql_parser.parse_query "SELECT FROM"); false
     with Sql_parser.Parse_error _ -> true);
  check "trailing garbage" true
    (try ignore (Sql_parser.parse_query "SELECT a FROM t t t"); false
     with Sql_parser.Parse_error _ -> true)

let plan_cache_misses () =
  Obs.Metrics.count
    (Obs.Metrics.counter (Obs.Metrics.registry "relalg") "plan_cache.misses")

(* An unknown function is an [Exec_error], and a failed call leaves
   nothing in the prepared-query cache that changes the next call with
   the same text: both calls plan. *)
let test_unknown_function () =
  let src = "SELECT * FROM D WHERE nofn(inmsg)" in
  let error () =
    match q src with
    | _ -> "no error"
    | exception Sql_exec.Exec_error msg -> msg
  in
  Obs.Config.with_enabled @@ fun () ->
  let misses = plan_cache_misses () in
  let first = error () in
  Alcotest.(check string) "first call" "unknown function nofn" first;
  Alcotest.(check string) "second call" first (error ());
  check_int "no plan cached" (misses + 2) (plan_cache_misses ())

(* Distinct texts still answer once the prepared-query cache is full,
   and filling it clears it: the last text is prepared, the first is
   planned again. *)
let test_prepared_capacity () =
  let text n = Printf.sprintf "SELECT * FROM D LIMIT %d" n in
  Obs.Config.with_enabled @@ fun () ->
  for n = 1 to 300 do
    check_int "limit honoured" (min n 4) (Table.cardinality (q (text n)))
  done;
  let misses = plan_cache_misses () in
  ignore (q (text 300));
  check_int "last text still prepared" misses (plan_cache_misses ());
  ignore (q (text 1));
  check_int "first text cleared" (misses + 1) (plan_cache_misses ())

let test_parse_predicate () =
  let p = Sql_parser.parse_predicate "a = 'x' AND NOT b IN ('y','z')" in
  Alcotest.(check (list string)) "columns" [ "a"; "b" ] (Expr.free_columns p)

let roundtrip_queries =
  [
    "SELECT inmsg FROM D WHERE dirst = 'SI' AND dirpv = 'one'";
    "SELECT DISTINCT inmsg, dirst FROM D";
    "SELECT * FROM D WHERE NOT (inmsg = 'wb' OR dirst = 'I')";
  ]

(* Ordered comparisons, ORDER BY, LIMIT, float literals and bare boolean
   predicates — the extensions the sys. system tables lean on. *)
let ndb =
  Database.add Database.empty
    (Table.of_rows ~name:"T"
       (Schema.of_list [ "name"; "n"; "x"; "ok" ])
       [
         [| Value.str "a"; Value.Int 3; Value.Float 0.5; Value.Bool true |];
         [| Value.str "b"; Value.Int 1; Value.Float 2.5; Value.Bool false |];
         [| Value.str "c"; Value.Int 2; Value.Float 1.5; Value.Bool true |];
       ])

let nq src = Sql_exec.query ndb src

let names t =
  List.rev (Table.fold (fun acc r -> Table.cell t r "name" :: acc) [] t)

let strs l = List.map Value.str l

let test_order_limit () =
  Alcotest.(check bool)
    "order by int" true
    (names (nq "SELECT name FROM T ORDER BY n") = strs [ "b"; "c"; "a" ]);
  Alcotest.(check bool)
    "order by desc + limit" true
    (names (nq "SELECT name FROM T ORDER BY x DESC LIMIT 2")
    = strs [ "b"; "c" ]);
  check_int "limit 0" 0 (Table.cardinality (nq "SELECT * FROM T LIMIT 0"));
  check_int "limit beyond cardinality" 3
    (Table.cardinality (nq "SELECT * FROM T LIMIT 99"));
  Alcotest.(check bool)
    "multi-key order" true
    (names (nq "SELECT name FROM T ORDER BY ok DESC, n ASC")
    = strs [ "c"; "a"; "b" ])

let test_comparisons () =
  check_int "gt" 2 (Table.cardinality (nq "SELECT * FROM T WHERE n > 1"));
  check_int "le" 2 (Table.cardinality (nq "SELECT * FROM T WHERE n <= 2"));
  check_int "float literal" 2
    (Table.cardinality (nq "SELECT * FROM T WHERE x >= 1.5"));
  (* ints and floats compare numerically under Value.order *)
  check_int "int column vs float literal" 1
    (Table.cardinality (nq "SELECT * FROM T WHERE n < 1.5"));
  check_int "string ordering" 2
    (Table.cardinality (nq "SELECT * FROM T WHERE name > 'a'"))

let test_bare_bool () =
  check_int "bare boolean column" 2
    (Table.cardinality (nq "SELECT * FROM T WHERE ok"));
  check_int "negated bare boolean" 1
    (Table.cardinality (nq "SELECT * FROM T WHERE NOT ok"));
  check_int "bare boolean in conjunction" 1
    (Table.cardinality (nq "SELECT * FROM T WHERE ok AND n > 2"))

let test_sys_writes_rejected () =
  let rejected stmt =
    try
      ignore (Sql_exec.exec ndb stmt);
      false
    with Sql_exec.Exec_error msg ->
      (* the diagnostic names the reservation, not a generic failure *)
      let contains s sub =
        let n = String.length s and m = String.length sub in
        let rec go i = i + m <= n && (String.sub s i m = sub || go (i + 1)) in
        go 0
      in
      contains msg "read-only system table"
  in
  check "create rejected" true
    (rejected "CREATE TABLE sys.mine AS SELECT * FROM T");
  check "insert rejected" true
    (rejected "INSERT INTO sys.mine VALUES ('a')");
  check "drop rejected" true (rejected "DROP TABLE sys.runs")

let test_reparse_stability () =
  (* parse, print, reparse: same result table *)
  List.iter
    (fun src ->
      let once = q src in
      let printed = Format.asprintf "%a" Sql_ast.pp_query (Sql_parser.parse_query src) in
      let twice = q printed in
      check ("roundtrip " ^ src) true (Table.equal_as_sets once twice))
    roundtrip_queries

let suite =
  [
    Alcotest.test_case "lexer" `Quick test_lexer;
    Alcotest.test_case "select/where" `Quick test_select_where;
    Alcotest.test_case "distinct" `Quick test_distinct;
    Alcotest.test_case "null and functions" `Quick test_null_and_functions;
    Alcotest.test_case "ternary in where" `Quick test_ternary_where;
    Alcotest.test_case "set operators" `Quick test_set_operators;
    Alcotest.test_case "UNION of incompatible operands" `Quick
      (test_incompatible_operands "UNION");
    Alcotest.test_case "EXCEPT of incompatible operands" `Quick
      (test_incompatible_operands "EXCEPT");
    Alcotest.test_case "INTERSECT of incompatible operands" `Quick
      (test_incompatible_operands "INTERSECT");
    Alcotest.test_case "set operators leave input dictionaries" `Quick
      test_set_ops_leave_inputs;
    Alcotest.test_case "create/insert/drop" `Quick test_create_insert_drop;
    Alcotest.test_case "emptiness checks" `Quick test_is_empty;
    Alcotest.test_case "errors" `Quick test_errors;
    Alcotest.test_case "unknown function" `Quick test_unknown_function;
    Alcotest.test_case "prepared-query capacity" `Quick test_prepared_capacity;
    Alcotest.test_case "order by / limit" `Quick test_order_limit;
    Alcotest.test_case "ordered comparisons" `Quick test_comparisons;
    Alcotest.test_case "bare boolean predicates" `Quick test_bare_bool;
    Alcotest.test_case "sys. writes rejected" `Quick test_sys_writes_rejected;
    Alcotest.test_case "parse predicate" `Quick test_parse_predicate;
    Alcotest.test_case "print/reparse stability" `Quick test_reparse_stability;
  ]
