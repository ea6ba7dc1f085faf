(* Mapping the debugged table to an implementation — the paper's
   section 5. *)

open Mapping
open Relalg

let check = Alcotest.(check bool)
let check_int = Alcotest.(check int)

let ed = lazy (Extend.ed ())
let impl_db = lazy (Partition.run ())

let str_cell t row col = Value.to_string (Table.cell t row col)

let test_ed_shape () =
  let ed = Lazy.force ed in
  check_int "34 columns (D's 31 plus qstatus, dqstatus, fdctx, fdback)" 35
    (Table.arity ed);
  check "more rows than D" true
    (Table.cardinality ed > Table.cardinality (Protocol.Dir_controller.table ()))

let test_ed_blocked_requests_retry () =
  let ed = Lazy.force ed in
  let blocked = Oracle.select (Expr.eq "qstatus" "Full") ed in
  check "blocked variants exist" true (not (Table.is_empty blocked));
  check "every blocked request retries or feeds back" true
    (List.for_all
       (fun row ->
         str_cell blocked row "locmsg" = "retry"
         || str_cell blocked row "fdback" = "dfdback")
       (Table.rows blocked));
  check "blocked requests change no state" true
    (List.for_all
       (fun row ->
         str_cell blocked row "bdirop" = "-" && str_cell blocked row "dirwr" = "-")
       (Table.rows blocked))

let test_ed_feedback_on_full_update_queue () =
  let ed = Lazy.force ed in
  let deferred =
    Oracle.select Expr.(eq "dqstatus" "Full" &&& eq_null "qstatus") ed
  in
  check "deferred variants exist" true (not (Table.is_empty deferred));
  check "deferrals only feed back" true
    (List.for_all
       (fun row ->
         str_cell deferred row "fdback" = "dfdback"
         && str_cell deferred row "locmsg" = "-"
         && str_cell deferred row "dirwr" = "-")
       (Table.rows deferred))

let test_ed_dfdback_rows () =
  let ed = Lazy.force ed in
  let replays = Oracle.select (Expr.eq "inmsg" "dfdback") ed in
  check "replay rows exist" true (not (Table.is_empty replays));
  check "replays carry their originating response" true
    (List.for_all (fun row -> str_cell replays row "fdctx" <> "-")
       (Table.rows replays));
  check "replays arrive as requests" true
    (List.for_all (fun row -> str_cell replays row "inmsgres" = "reqq")
       (Table.rows replays))

let test_ed_unblocked_preserves_d () =
  let ed = Lazy.force ed in
  let d = Protocol.Dir_controller.table () in
  let normal =
    Oracle.select
      Expr.(
        eq_null "fdctx"
        &&& Not (eq "inmsg" "dfdback")
        &&& (eq "qstatus" "NotFull" ||| eq "dqstatus" "NotFull"
            ||| (eq_null "qstatus" &&& eq_null "dqstatus")))
      ed
  in
  let projected =
    Oracle.distinct (Table.project (Schema.columns (Table.schema d)) normal)
  in
  check "unblocked ED rows contain D" true (Table.subset d projected)

let test_ed_deterministic () =
  let ed = Lazy.force ed in
  let inputs = Table.project Extend.input_columns ed in
  check_int "ED is a function of its inputs"
    (Table.cardinality (Oracle.distinct inputs))
    (Table.cardinality (Oracle.distinct ed))

let test_nine_tables () =
  let db = Lazy.force impl_db in
  let tables = Partition.implementation_tables db in
  check_int "nine implementation tables" 9 (List.length tables);
  check_int "nine groups" 9 (List.length Partition.groups);
  check_int "five request-side tables" 5
    (List.length (List.filter (fun g -> g.Partition.side = `Request) Partition.groups));
  (* requests and responses are disjoint partitions of ED *)
  let req = Database.find db "Request_locmsg" in
  let resp = Database.find db "Response_locmsg" in
  check "partitions are non-trivial" true
    (Table.cardinality req > 0 && Table.cardinality resp > 0)

let test_partition_is_sql () =
  (* the statements really are executable SQL text *)
  let stmts = Partition.sql_statements () in
  check_int "nine statements" 9 (List.length stmts);
  List.iter
    (fun src ->
      match Relalg.Sql_parser.parse_statement src with
      | Relalg.Sql_ast.Create_table_as _ -> ()
      | _ -> Alcotest.fail ("not CREATE TABLE AS: " ^ src))
    stmts

(* Each partition query on the planner equals the row-at-a-time
   reference on ED, row for row and in order: DISTINCT over 18 to 20 key
   columns (ED's inputs plus the group's payload) under a filter, the
   widest dedup the checks workload runs. *)
let test_partition_matches_reference () =
  let db = Extend.database () in
  List.iter2
    (fun g src ->
      match Relalg.Sql_parser.parse_statement src with
      | Relalg.Sql_ast.Create_table_as (name, q) ->
          let planned = Relalg.Sql_exec.run_query db q in
          let reference = Relalg.Sql_exec.run_query_reference db q in
          check_int (name ^ ": key columns")
            (List.length Extend.input_columns + List.length g.Partition.payload)
            (Table.arity planned);
          check (name ^ ": non-empty") true (not (Table.is_empty planned));
          check (name ^ ": same schema") true
            (Schema.columns (Table.schema planned)
            = Schema.columns (Table.schema reference));
          check (name ^ ": same rows in order") true
            (Table.rows planned = Table.rows reference)
      | _ -> Alcotest.fail ("not CREATE TABLE AS: " ^ src))
    Partition.groups (Partition.sql_statements ())

let test_reconstruction () =
  let outcome = Reconstruct.check ~db:(Lazy.force impl_db) () in
  check "ED rebuilt exactly" true outcome.Reconstruct.ed_preserved;
  check "D contained in the rebuild" true outcome.Reconstruct.d_preserved;
  check_int "no missing rows" 0 (Table.cardinality outcome.Reconstruct.missing_rows)

(* The paper's one join runs on the engine: each side's join chain is
   recorded in the plan observatory, with estimates that hold. *)
let test_reconstruction_on_engine () =
  let db = Lazy.force impl_db in
  Obs.Config.with_enabled @@ fun () ->
  Obs.Planlog.reset ();
  ignore (Reconstruct.check ~db ());
  let joins =
    List.filter
      (fun (e : Obs.Planlog.entry) ->
        e.e_site = "mapping.reconstruct"
        && String.length e.e_query > 6
        && String.sub e.e_query 0 6 = "join [")
      (Obs.Planlog.snapshot ())
  in
  check_int "seven join plans (four request-side, three response-side)" 7
    (List.length joins);
  List.iter
    (fun e ->
      let m = Obs.Planlog.misest e in
      check (Printf.sprintf "misest %.1f < 2" m) true (m < 2.))
    joins

let test_reconstruction_detects_damage () =
  (* drop rows from one implementation table: the round trip must fail *)
  let db = Lazy.force impl_db in
  let damaged =
    let t = Database.find db "Request_remmsg" in
    let keep = ref true in
    Table.filter
      (fun _ ->
        let k = !keep in
        keep := false;
        k)
      t
  in
  let db = Database.replace db damaged in
  let outcome = Reconstruct.check ~db () in
  check "damage detected" false outcome.Reconstruct.d_preserved

(* ------------------------------ codegen ----------------------------- *)

let test_rules_respect_specificity () =
  let t =
    Table.of_rows ~name:"t"
      (Schema.of_list [ "a"; "b"; "out" ])
      [
        Row.of_list [ Value.str "x"; Value.Null; Value.str "general" ];
        Row.of_list [ Value.str "x"; Value.str "y"; Value.str "specific" ];
      ]
  in
  let rules = Codegen.rules_of_table ~inputs:[ "a"; "b" ] ~outputs:[ "out" ] t in
  (* the more specific rule must fire first *)
  let action binding =
    Option.map
      (fun (r : Codegen.rule) -> r.action)
      (Codegen.eval_rule rules binding)
  in
  Alcotest.(check (option (list (pair string string))))
    "specific wins"
    (Some [ "out", "specific" ])
    (action [ "a", "x"; "b", "y" ]);
  Alcotest.(check (option (list (pair string string))))
    "general still reachable"
    (Some [ "out", "general" ])
    (action [ "a", "x"; "b", "z" ])

let test_generated_logic_agrees_everywhere () =
  let db = Lazy.force impl_db in
  List.iter
    (fun (g : Partition.group) ->
      let t = Database.find db g.Partition.table_name in
      check (g.Partition.table_name ^ " agrees") true
        (Codegen.agrees_with_table ~inputs:Extend.input_columns
           ~outputs:g.Partition.payload t))
    Partition.groups

let contains s sub =
  let n = String.length s and m = String.length sub in
  let rec go i = i + m <= n && (String.sub s i m = sub || go (i + 1)) in
  go 0

let test_verilog_emission () =
  let emitted = Codegen.emit_all (Lazy.force impl_db) in
  check_int "nine modules" 9 (List.length emitted);
  List.iter
    (fun (name, code) ->
      check (name ^ " has module header") true (contains code "module");
      check (name ^ " has localparams") true (contains code "localparam");
      check (name ^ " marked generated") true (contains code "do not edit"))
    emitted

let test_ocaml_emission () =
  let rules =
    Codegen.rules_of_table ~inputs:[ "a" ] ~outputs:[ "o" ]
      (Table.of_rows ~name:"mini"
         (Schema.of_list [ "a"; "o" ])
         [ Row.strings [ "x"; "y" ] ])
  in
  let code = Codegen.to_ocaml ~name:"mini" rules in
  check "defines a function" true (contains code "let mini");
  check "mentions the binding" true (contains code "\"x\"")

let suite =
  [
    Alcotest.test_case "ED shape" `Quick test_ed_shape;
    Alcotest.test_case "blocked requests retry" `Quick test_ed_blocked_requests_retry;
    Alcotest.test_case "full update queue feeds back" `Quick test_ed_feedback_on_full_update_queue;
    Alcotest.test_case "dfdback replay rows" `Quick test_ed_dfdback_rows;
    Alcotest.test_case "unblocked ED preserves D" `Quick test_ed_unblocked_preserves_d;
    Alcotest.test_case "ED determinism" `Quick test_ed_deterministic;
    Alcotest.test_case "nine implementation tables" `Quick test_nine_tables;
    Alcotest.test_case "partitioning is real SQL" `Quick test_partition_is_sql;
    Alcotest.test_case "partition queries equal the reference" `Quick
      test_partition_matches_reference;
    Alcotest.test_case "reconstruction round trip" `Quick test_reconstruction;
    Alcotest.test_case "reconstruction joins run on the engine" `Quick test_reconstruction_on_engine;
    Alcotest.test_case "reconstruction detects damage" `Quick test_reconstruction_detects_damage;
    Alcotest.test_case "rule specificity" `Quick test_rules_respect_specificity;
    Alcotest.test_case "generated logic agrees with tables" `Quick test_generated_logic_agrees_everywhere;
    Alcotest.test_case "verilog emission" `Quick test_verilog_emission;
    Alcotest.test_case "ocaml emission" `Quick test_ocaml_emission;
  ]
