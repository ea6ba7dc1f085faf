(* Query plans, the optimizer, CSV interchange, COUNT. *)

open Relalg

let check = Alcotest.(check bool)
let check_int = Alcotest.(check int)

let db =
  Database.of_tables
    [
      Table.of_rows ~name:"T"
        (Schema.of_list [ "a"; "b" ])
        (List.map Row.strings
           [ [ "x"; "1" ]; [ "x"; "2" ]; [ "y"; "1" ]; [ "z"; "3" ] ]);
      Table.of_rows ~name:"U"
        (Schema.of_list [ "a"; "b" ])
        (List.map Row.strings [ [ "x"; "1" ]; [ "w"; "9" ] ]);
    ]

let q = Sql_parser.parse_query

(* ------------------------------ plans ------------------------------- *)

let test_translation () =
  match Plan.of_query (q "SELECT DISTINCT a FROM T WHERE b = '1'") with
  | Plan.Distinct (Plan.Project ([ "a" ], Plan.Select (_, Plan.Scan "T"))) -> ()
  | p -> Alcotest.fail ("unexpected plan: " ^ Plan.explain p)

(* The translation written out by hand from the SQL semantics, the
   independent check on [Plan.of_query] that lets the reference oracle
   be [Oracle.execute] over it.  A plain projection sorts below its
   [Project], so ORDER BY may name a column the SELECT list drops; an
   aggregate sorts above, over its output columns; DISTINCT applies to
   the projected rows and LIMIT to the final order. *)
let of_query_golden =
  let open Plan in
  let b_is_1 = Expr.eq "b" "1" and a_is_x = Expr.eq "a" "x" in
  [
    ("SELECT * FROM T", Scan "T");
    ( "SELECT * FROM T ORDER BY b DESC, a",
      Sort ([ ("b", `Desc); ("a", `Asc) ], Scan "T") );
    ("SELECT a, b FROM T", Project ([ "a"; "b" ], Scan "T"));
    ( "SELECT a FROM T ORDER BY b",
      Project ([ "a" ], Sort ([ ("b", `Asc) ], Scan "T")) );
    ( "SELECT a FROM T WHERE b = '1' ORDER BY b DESC",
      Project ([ "a" ], Sort ([ ("b", `Desc) ], Select (b_is_1, Scan "T"))) );
    ("SELECT COUNT(*) FROM T", Count (Scan "T"));
    ( "SELECT COUNT(*) FROM T WHERE a = 'x'",
      Count (Select (a_is_x, Scan "T")) );
    ("SELECT a, COUNT(*) FROM T GROUP BY a", Group_count ([ "a" ], Scan "T"));
    ( "SELECT a, COUNT(*) FROM T GROUP BY a ORDER BY count DESC",
      Sort ([ ("count", `Desc) ], Group_count ([ "a" ], Scan "T")) );
    ( "SELECT a, COUNT(*) FROM T WHERE b = '1' GROUP BY a ORDER BY count, a",
      Sort
        ( [ ("count", `Asc); ("a", `Asc) ],
          Group_count ([ "a" ], Select (b_is_1, Scan "T")) ) );
    ("SELECT DISTINCT a FROM T", Distinct (Project ([ "a" ], Scan "T")));
    ("SELECT DISTINCT * FROM T", Distinct (Scan "T"));
    ( "SELECT DISTINCT a FROM T WHERE b = '1' ORDER BY a",
      Distinct
        (Project ([ "a" ], Sort ([ ("a", `Asc) ], Select (b_is_1, Scan "T"))))
    );
    ("SELECT * FROM T LIMIT 2", Limit (2, Scan "T"));
    ( "SELECT a FROM T ORDER BY b LIMIT 1",
      Limit (1, Project ([ "a" ], Sort ([ ("b", `Asc) ], Scan "T"))) );
    ( "SELECT DISTINCT a FROM T LIMIT 1",
      Limit (1, Distinct (Project ([ "a" ], Scan "T"))) );
    ( "SELECT a, COUNT(*) FROM T GROUP BY a ORDER BY count DESC LIMIT 1",
      Limit (1, Sort ([ ("count", `Desc) ], Group_count ([ "a" ], Scan "T")))
    );
    ( "SELECT * FROM T WHERE NOT (a = 'x' OR b = '1')",
      Select (Expr.Not (Expr.Or (a_is_x, b_is_1)), Scan "T") );
    ( "SELECT a FROM T WHERE a = 'x' AND b <> '1'",
      Project ([ "a" ], Select (Expr.And (a_is_x, Expr.neq "b" "1"), Scan "T"))
    );
    ( "SELECT a FROM T UNION SELECT a FROM U",
      Union (Project ([ "a" ], Scan "T"), Project ([ "a" ], Scan "U")) );
    ( "SELECT a FROM T EXCEPT SELECT a FROM U WHERE b = '9'",
      Except
        ( Project ([ "a" ], Scan "T"),
          Project ([ "a" ], Select (Expr.eq "b" "9", Scan "U")) ) );
    ( "SELECT a FROM T INTERSECT SELECT a FROM U",
      Intersect (Project ([ "a" ], Scan "T"), Project ([ "a" ], Scan "U")) );
    ( "SELECT a FROM T ORDER BY b UNION SELECT DISTINCT a FROM U",
      Union
        ( Project ([ "a" ], Sort ([ ("b", `Asc) ], Scan "T")),
          Distinct (Project ([ "a" ], Scan "U")) ) );
  ]

let test_of_query_golden () =
  let plan =
    Alcotest.testable
      (fun fmt p -> Format.pp_print_string fmt (Plan.explain p))
      ( = )
  in
  List.iter
    (fun (src, want) -> Alcotest.check plan src want (Plan.of_query (q src)))
    of_query_golden

let test_simplify_predicate () =
  let s = Plan.simplify_predicate in
  check "x and true = x" true
    (s Expr.(And (eq "a" "x", True)) = Expr.eq "a" "x");
  check "x or true = true" true (s Expr.(Or (eq "a" "x", True)) = Expr.True);
  check "constant fold eq" true
    (s (Expr.Eq (Expr.s "p", Expr.s "p")) = Expr.True);
  check "constant fold neq" true
    (s (Expr.Neq (Expr.s "p", Expr.s "q")) = Expr.True);
  check "double negation" true
    (s (Expr.Not (Expr.Not (Expr.eq "a" "x"))) = Expr.eq "a" "x");
  check "empty IN is false" true (s (Expr.In (Expr.Col "a", [])) = Expr.False);
  check "singleton IN becomes eq" true
    (s (Expr.isin "a" [ "x" ]) = Expr.eq "a" "x");
  check "constant ternary collapses" true
    (s (Expr.Ternary (Expr.True, Expr.eq "a" "x", Expr.False)) = Expr.eq "a" "x")

let test_optimizer_rules () =
  (* select false collapses branches whose schema is statically known *)
  (match
     Plan.optimize
       (Plan.Select (Expr.False, Plan.Project ([ "a" ], Plan.Scan "T")))
   with
  | Plan.Empty [ "a" ] -> ()
  | p -> Alcotest.fail ("expected empty: " ^ Plan.explain p));
  (* over a bare scan the schema is unknown: the selection stays *)
  (match Plan.optimize (Plan.Select (Expr.False, Plan.Scan "T")) with
  | Plan.Select (Expr.False, Plan.Scan "T") -> ()
  | p -> Alcotest.fail ("expected kept select: " ^ Plan.explain p));
  (* adjacent selects merge *)
  (match
     Plan.optimize
       (Plan.Select (Expr.eq "a" "x", Plan.Select (Expr.eq "b" "1", Plan.Scan "T")))
   with
  | Plan.Select (Expr.And _, Plan.Scan "T") -> ()
  | p -> Alcotest.fail ("expected merged select: " ^ Plan.explain p));
  (* select pushes below project *)
  match
    Plan.optimize
      (Plan.Select (Expr.eq "a" "x", Plan.Project ([ "a" ], Plan.Scan "T")))
  with
  | Plan.Project ([ "a" ], Plan.Select (_, Plan.Scan "T")) -> ()
  | p -> Alcotest.fail ("expected pushed select: " ^ Plan.explain p)

let queries =
  [
    "SELECT a FROM T WHERE b = '1'";
    "SELECT DISTINCT a FROM T";
    "SELECT a, b FROM T WHERE a = 'x' AND b = '2'";
    "SELECT a FROM T WHERE a = 'x' UNION SELECT a FROM U";
    "SELECT a FROM T EXCEPT SELECT a FROM U WHERE b = '9'";
    "SELECT a FROM T WHERE a = 'nosuch' UNION SELECT a FROM U";
    "SELECT a FROM T INTERSECT SELECT a FROM U";
    "SELECT * FROM T WHERE NOT (a = 'x' OR b = '3')";
    "SELECT a FROM T WHERE a IN ('x')";
    "SELECT COUNT(*) FROM T WHERE a = 'x'";
  ]

(* The reference answer to a query, its plan optimized or not. *)
let reference ?(optimize = true) db src =
  let p = Plan.of_query (Sql_parser.parse_query src) in
  Oracle.execute db (if optimize then Plan.optimize p else p)

let test_optimizer_preserves_semantics () =
  List.iter
    (fun src ->
      let direct = reference ~optimize:false db src in
      let optimized = reference db src in
      check ("same result: " ^ src) true
        (Table.equal_as_sets direct optimized))
    queries

let test_plan_matches_executor () =
  List.iter
    (fun src ->
      check ("plan = executor: " ^ src) true
        (Table.equal_as_sets (reference db src) (Sql_exec.query db src)))
    queries

let test_explain () =
  let s = Plan.explain (Plan.of_query (q "SELECT DISTINCT a FROM T WHERE b = '1'")) in
  check "multi-line tree" true (List.length (String.split_on_char '\n' s) >= 4)

(* random plans: optimize must preserve results *)
let pred_gen =
  QCheck.Gen.(
    let atom =
      oneof
        [
          map2 (fun c v -> Expr.eq c v) (oneofl [ "a"; "b" ]) (oneofl [ "x"; "1"; "q" ]);
          return Expr.True;
          return Expr.False;
        ]
    in
    sized @@ fix (fun self n ->
        if n = 0 then atom
        else
          frequency
            [
              3, atom;
              1, map2 (fun a b -> Expr.And (a, b)) (self (n / 2)) (self (n / 2));
              1, map2 (fun a b -> Expr.Or (a, b)) (self (n / 2)) (self (n / 2));
              1, map (fun a -> Expr.Not a) (self (n / 2));
            ]))

let plan_gen =
  QCheck.Gen.(
    let base = oneofl [ Plan.Scan "T"; Plan.Scan "U" ] in
    sized @@ fix (fun self n ->
        if n = 0 then base
        else
          frequency
            [
              2, base;
              2, map2 (fun e p -> Plan.Select (e, p)) pred_gen (self (n / 2));
              1, map (fun p -> Plan.Distinct p) (self (n / 2));
              1, map (fun p -> Plan.Project ([ "a" ], p)) (self (n / 2));
              1, map2 (fun a b -> Plan.Union (a, b)) (self (n / 2)) (self (n / 2));
              1, map2 (fun a b -> Plan.Except (a, b)) (self (n / 2)) (self (n / 2));
            ]))

let prop_optimize_sound =
  QCheck.Test.make ~count:300 ~name:"optimize preserves plan semantics"
    (QCheck.make plan_gen ~print:Plan.explain)
    (fun p ->
      (* random Union/Except operands may have incompatible schemas after
         a Project: treat those as trivially passing *)
      match Oracle.execute db p with
      | direct ->
          Table.equal_as_sets direct (Oracle.execute db (Plan.optimize p))
      | exception Schema.Incompatible_schemas _ -> true
      | exception Schema.Unknown_column _ -> true)

(* ------------------------------- count ------------------------------ *)

let test_count () =
  let t = Sql_exec.query db "SELECT COUNT(*) FROM T WHERE a = 'x'" in
  check_int "one row" 1 (Table.cardinality t);
  check "count value" true
    (Value.equal (List.hd (Table.rows t)).(0) (Value.Int 2));
  let zero = Sql_exec.query db "SELECT COUNT(*) FROM T WHERE a = 'none'" in
  check "count zero" true
    (Value.equal (List.hd (Table.rows zero)).(0) (Value.Int 0))

let test_group_by () =
  let t = Sql_exec.query db "SELECT a, COUNT(*) FROM T GROUP BY a" in
  check_int "three groups" 3 (Table.cardinality t);
  check_int "three columns?" 2 (Table.arity t);
  let count_of key =
    List.find_map
      (fun row ->
        if Value.equal row.(0) (Value.str key) then
          match row.(1) with Value.Int n -> Some n | _ -> None
        else None)
      (Table.rows t)
  in
  Alcotest.(check (option int)) "x appears twice" (Some 2) (count_of "x");
  Alcotest.(check (option int)) "z appears once" (Some 1) (count_of "z");
  (* with a WHERE clause *)
  let t = Sql_exec.query db "SELECT a, COUNT(*) FROM T WHERE b = '1' GROUP BY a" in
  check_int "filtered groups" 2 (Table.cardinality t);
  (* planner and physical agree *)
  let q = "SELECT a, COUNT(*) FROM T WHERE NOT a = 'z' GROUP BY a" in
  check "plan agrees" true
    (Table.equal_as_sets (reference db q) (Sql_exec.query db q));
  check "mismatched keys rejected" true
    (try
       ignore (Sql_parser.parse_query "SELECT a, COUNT(*) FROM T GROUP BY b");
       false
     with Sql_parser.Parse_error _ -> true)

(* -------------------------------- csv ------------------------------- *)

let test_csv_roundtrip () =
  let t =
    Table.of_rows ~name:"R"
      (Schema.of_list [ "m"; "n"; "note" ])
      [
        [| Value.str "readex"; Value.Int 3; Value.str "plain" |];
        [| Value.Null; Value.Int (-1); Value.str "has,comma" |];
        [| Value.Bool true; Value.Int 0; Value.str "quote\"inside" |];
      ]
  in
  let back = Csv.of_string ~name:"R" (Csv.to_string t) in
  check "roundtrip" true (Table.equal_as_sets t back);
  check "schema preserved" true (Schema.equal (Table.schema t) (Table.schema back))

let test_csv_null_conventions () =
  let t = Csv.of_string ~name:"x" "a,b\nNULL,plain\n,quoted\n" in
  let rows = Table.rows t in
  check "NULL literal" true (Value.is_null (List.hd rows).(0));
  check "empty cell is null" true (Value.is_null (List.nth rows 1).(0))

let test_csv_errors () =
  check "ragged row" true
    (try ignore (Csv.of_string ~name:"x" "a,b\n1\n"); false
     with Csv.Csv_error _ -> true);
  check "unterminated quote" true
    (try ignore (Csv.of_string ~name:"x" "a\n\"oops\n"); false
     with Csv.Csv_error _ -> true);
  (* a header naming a column twice is a CSV error on line 1, not an
     escaping schema exception; so is a header cell that names no
     column, by its position *)
  List.iter
    (fun (src, message) ->
      Alcotest.(check (pair int string))
        (Printf.sprintf "bad header in %S" src)
        (1, message)
        (match Csv.of_string ~name:"x" src with
        | _ -> (0, "accepted")
        | exception Csv.Csv_error { line; message } -> (line, message)))
    [ ("a,a\n1,2\n", "duplicate column \"a\"");
      (",\n1,2\n", "column 1 has no name");
      ("m,,d,v\nread,local,home,VC0\n", "column 2 has no name");
      ("m,NULL,d,v\nread,local,home,VC0\n", "column 2 has no name");
      ("m,s,d,\"\"\nread,local,home,VC0\n", "column 4 has no name") ];
  (* blank lines outside quotes are no records, wherever they are; the
     line numbers of later records still count them *)
  let t, lines =
    Csv.of_string_lines ~name:"x" "m,s\r\n\nread,local\n\n\nwb,home\n\n"
  in
  check "blank lines skipped" true
    (Table.rows t = [ Row.strings [ "read"; "local" ]; Row.strings [ "wb"; "home" ] ]);
  Alcotest.(check (array int)) "record lines" [| 3; 6 |] lines;
  (* a quoted empty cell is a record, even as the last line *)
  check "quoted empty cell" true
    (Table.cardinality (Csv.of_string ~name:"x" "a\n\"\"") = 1)

let test_csv_on_controller_table () =
  let d = Protocol.Dir_controller.table () in
  let back = Csv.of_string ~name:"D" (Csv.to_string d) in
  check "D roundtrips through csv" true (Table.equal_as_sets d back)

(* The CSV renderer walks dictionary codes; make sure derived tables —
   whose shared dictionaries hold more entries than the rows reference —
   render exactly their own rows. *)
let test_csv_roundtrip_derived () =
  let d = Protocol.Dir_controller.table () in
  let sub =
    Table.project [ "inmsg"; "dirst"; "locmsg" ]
      (Oracle.select (Expr.eq "inmsg" "readex") d)
  in
  let back = Csv.of_string ~name:"sub" (Csv.to_string sub) in
  check "derived table roundtrips" true (Table.equal_as_sets sub back);
  check "row order preserved" true
    (List.for_all2 Row.equal (Table.rows sub) (Table.rows back))

let prop_csv_roundtrip =
  QCheck.Test.make ~count:200 ~name:"csv roundtrips arbitrary cell content"
    (QCheck.make
       QCheck.Gen.(
         list_size (int_range 1 5)
           (oneofl
              [ "plain"; "with,comma"; "with\"quote"; "multi\nline"; "NULL"; "" ])))
    (fun cells ->
      let t =
        Table.of_rows ~name:"q"
          (Schema.of_list
             (List.mapi (fun i _ -> Printf.sprintf "c%d" i) cells))
          [ Row.strings cells ]
      in
      Table.equal_as_sets t (Csv.of_string ~name:"q" (Csv.to_string t)))

(* CSV is external input: any text parses to a table or raises
   [Csv_error], never another exception. *)
let csv_chars = "ab1.-,\"\r\n\000 "

let gen_csv_text =
  let open QCheck2.Gen in
  let text = string_size ~gen:(oneofl (List.of_seq (String.to_seq csv_chars))) (int_range 0 40) in
  oneof
    [
      text;
      map2 ( ^ ) (oneofl [ "m,s,d,v\n"; "a,a\n"; ",\n"; "\"a\n\n\",b\n" ]) text;
    ]

let prop_csv_of_string_total =
  QCheck2.Test.make ~count:3000
    ~name:"Csv.of_string returns a table or raises Csv_error"
    ~print:(Printf.sprintf "%S") gen_csv_text
    (fun src ->
      match Csv.of_string ~name:"fuzz" src with
      | _ -> true
      | exception Csv.Csv_error _ -> true)

let suite =
  [
    Alcotest.test_case "query translation" `Quick test_translation;
    Alcotest.test_case "of_query golden table" `Quick test_of_query_golden;
    Alcotest.test_case "predicate simplification" `Quick test_simplify_predicate;
    Alcotest.test_case "optimizer rules" `Quick test_optimizer_rules;
    Alcotest.test_case "optimizer preserves semantics" `Quick test_optimizer_preserves_semantics;
    Alcotest.test_case "plan matches executor" `Quick test_plan_matches_executor;
    Alcotest.test_case "explain output" `Quick test_explain;
    Alcotest.test_case "count(*)" `Quick test_count;
    Alcotest.test_case "group by count" `Quick test_group_by;
    Alcotest.test_case "csv roundtrip" `Quick test_csv_roundtrip;
    Alcotest.test_case "csv null conventions" `Quick test_csv_null_conventions;
    Alcotest.test_case "csv errors" `Quick test_csv_errors;
    Alcotest.test_case "csv on the D table" `Quick test_csv_on_controller_table;
    Alcotest.test_case "csv on a derived table" `Quick test_csv_roundtrip_derived;
    Test_seed.to_alcotest prop_optimize_sound;
    Test_seed.to_alcotest prop_csv_roundtrip;
    Test_seed.to_alcotest prop_csv_of_string_total;
  ]
