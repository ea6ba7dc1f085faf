(* Hash indexes and the planner's index-lookup access path. *)

open Relalg

let check = Alcotest.(check bool)
let check_int = Alcotest.(check int)

let proto_db = lazy (Protocol.database ())
let d_indexes = [ "D", "inmsg"; "D", "bdirst" ]

(* ------------------------------- index ------------------------------ *)

let test_index_lookup () =
  let d = Protocol.Dir_controller.table () in
  let idx = Index.build d "inmsg" in
  let readex = Index.lookup idx (Value.str "readex") in
  check "finds readex rows" true (List.length readex > 10);
  check "rows actually match" true
    (List.for_all
       (fun row -> Value.equal (Table.cell d row "inmsg") (Value.str "readex"))
       readex);
  check_int "misses return nothing" 0
    (List.length (Index.lookup idx (Value.str "nosuchmsg")));
  check "index is consistent with its table" true (Index.consistent idx d)

let test_index_order_preserved () =
  let t =
    Table.of_rows ~name:"ord"
      (Schema.of_list [ "k"; "v" ])
      (List.map Row.strings [ [ "a"; "1" ]; [ "b"; "9" ]; [ "a"; "2" ]; [ "a"; "3" ] ])
  in
  let idx = Index.build t "k" in
  Alcotest.(check (list string)) "table order within a bucket"
    [ "1"; "2"; "3" ]
    (List.map (fun r -> Value.to_string r.(1)) (Index.lookup idx (Value.str "a")))

let prop_index_agrees_with_scan =
  QCheck.Test.make ~count:100 ~name:"index lookup = select scan"
    (QCheck.make
       QCheck.Gen.(
         pair
           (list_size (int_bound 20)
              (pair (oneofl [ "a"; "b"; "c"; "d" ]) (oneofl [ "1"; "2"; "3" ])))
           (oneofl [ "a"; "b"; "c"; "d"; "zz" ])))
    (fun (rows, probe) ->
      let t =
        Table.of_rows ~name:"q"
          (Schema.of_list [ "k"; "v" ])
          (List.map (fun (k, v) -> Row.strings [ k; v ]) rows)
      in
      let idx = Index.build t "k" in
      let via_index = Index.lookup idx (Value.str probe) in
      let via_scan = Table.rows (Ops.select (Expr.eq "k" probe) t) in
      List.length via_index = List.length via_scan
      && List.for_all2 Row.equal via_index via_scan)

(* ------------------------ index access paths ------------------------ *)

let plan ?(indexes = d_indexes) ?(db = Lazy.force proto_db) sql =
  Planner.plan ~indexes db (Plan.of_query (Sql_parser.parse_query sql))

let run ?indexes ?(db = Lazy.force proto_db) sql =
  Planner.execute db (plan ?indexes ~db sql)

(* An indexed equality becomes the leaf; the other conjunct is the
   residual filter above it. *)
let test_physicalize_chooses_index () =
  match plan "SELECT * FROM D WHERE inmsg = 'readex' AND dirst = 'SI'" with
  | {
   Planner.op = Planner.Filter (Expr.Eq (Expr.Col "dirst", _));
   children =
     [
       {
         Planner.op =
           Planner.Index_scan { table = "D"; column = "inmsg"; value };
         est;
         children = [];
         _;
       };
     ];
   _;
  } ->
      check "probe value" true (Value.equal value (Value.str "readex"));
      let d = Database.find (Lazy.force proto_db) "D" in
      let ndv =
        Dict.size (Table.dict d (Schema.index (Table.schema d) "inmsg"))
      in
      Alcotest.(check (float 1e-9))
        "estimated at rows / ndv"
        (float_of_int (Table.cardinality d) /. float_of_int ndv)
        est
  | p -> Alcotest.fail ("expected index lookup under a filter:\n" ^ Planner.render p)

let test_physicalize_without_index () =
  match plan "SELECT * FROM D WHERE dirst = 'SI'" with
  | {
   Planner.op = Planner.Filter _;
   children = [ { Planner.op = Planner.Scan "D"; _ } ];
   _;
  } ->
      ()
  | p -> Alcotest.fail ("expected seq scan:\n" ^ Planner.render p)

let physical_queries =
  [
    "SELECT * FROM D WHERE inmsg = 'readex'";
    "SELECT * FROM D WHERE inmsg = 'readex' AND dirst = 'I'";
    "SELECT DISTINCT locmsg FROM D WHERE inmsg = 'readex' AND bdirlookup = 'hit'";
    "SELECT inmsg, bdirst FROM D WHERE bdirst = 'Busy-readex-sd'";
    "SELECT COUNT(*) FROM D WHERE inmsg = 'wb' AND locmsg = 'compl'";
    "SELECT DISTINCT inmsg FROM D WHERE inmsg = 'read' UNION SELECT DISTINCT inmsg FROM D WHERE inmsg = 'wb'";
    "SELECT * FROM D WHERE inmsg = 'nosuchmsg'";
  ]

(* The planner with indexes against the row-at-a-time reference, row
   for row and in order. *)
let test_physical_agrees_with_executor () =
  let db = Lazy.force proto_db in
  List.iter
    (fun q ->
      let reference = Sql_exec.run_query_reference db (Sql_parser.parse_query q) in
      let indexed = run q in
      check ("same rows: " ^ q) true
        (Table.rows indexed = Table.rows reference))
    physical_queries

let test_store_caches_indexes () =
  let d = Database.find (Lazy.force proto_db) "D" in
  let i = Index.cached d "inmsg" in
  check "same snapshot, same index" true (Index.cached d "inmsg" == i);
  check "per column" false (Index.cached d "bdirst" == i);
  check "built over that snapshot" true (Index.source i == d)

(* CREATE TABLE … AS re-registers a name with new storage: the cache
   must notice the table's storage identity changed and re-index instead
   of serving rows of the dead snapshot. *)
let test_store_invalidates_replaced_table () =
  let db1, _ =
    Sql_exec.exec (Lazy.force proto_db)
      "CREATE TABLE T AS SELECT inmsg, dirst FROM D WHERE dirst = 'I'"
  in
  let indexes = [ "T", "inmsg" ] in
  let q = "SELECT * FROM T WHERE inmsg = 'readex'" in
  let before = run ~indexes ~db:db1 q in
  let old_index = Index.cached (Database.find db1 "T") "inmsg" in
  let db2, _ =
    Sql_exec.exec db1
      "CREATE TABLE T AS SELECT inmsg, dirst FROM D WHERE dirst = 'SI'"
  in
  let t2 = Database.find db2 "T" in
  let fresh = Index.cached t2 "inmsg" in
  check "fresh index after re-registration" false (fresh == old_index);
  check "built over the new snapshot" true (Index.source fresh == t2);
  let after = run ~indexes ~db:db2 q in
  check "rows come from the new snapshot" true
    (Table.rows after
    = Table.rows (Sql_exec.query db2 "SELECT * FROM T WHERE inmsg = 'readex'"));
  check "and differ from the old one" false (Table.rows after = Table.rows before)

let test_explain_physical () =
  let s =
    Planner.render (plan "SELECT * FROM D WHERE inmsg = 'wb' AND dirst = 'I'")
  in
  check "mentions index lookup" true
    (let needle = "index lookup D.inmsg = 'wb'" in
     let rec go i =
       i + String.length needle <= String.length s
       && (String.sub s i (String.length needle) = needle || go (i + 1))
     in
     go 0)

(* With no index declared, planning is exactly the index-free planner:
   same shape, estimates and fingerprint. *)
let test_no_indexes_no_change () =
  let db = Lazy.force proto_db in
  let q = "SELECT * FROM D WHERE inmsg = 'readex' AND dirst = 'I'" in
  let plain = Planner.plan db (Plan.of_query (Sql_parser.parse_query q)) in
  let declared_elsewhere = plan ~indexes:[ "M", "inmsg" ] q in
  check "same rendering" true
    (Planner.render plain = Planner.render declared_elsewhere);
  check "same fingerprint" true
    (Planner.fingerprint db plain = Planner.fingerprint db declared_elsewhere);
  check "indexed plan fingerprints differently" false
    (Planner.fingerprint db plain = Planner.fingerprint db (plan q))

let suite =
  [
    Alcotest.test_case "index lookup" `Quick test_index_lookup;
    Alcotest.test_case "bucket order" `Quick test_index_order_preserved;
    Alcotest.test_case "physicalize chooses index" `Quick test_physicalize_chooses_index;
    Alcotest.test_case "physicalize falls back to scan" `Quick test_physicalize_without_index;
    Alcotest.test_case "physical agrees with executor" `Quick test_physical_agrees_with_executor;
    Alcotest.test_case "index cache" `Quick test_store_caches_indexes;
    Alcotest.test_case "index cache invalidation" `Quick
      test_store_invalidates_replaced_table;
    Alcotest.test_case "physical explain" `Quick test_explain_physical;
    Alcotest.test_case "no index, no plan change" `Quick test_no_indexes_no_change;
    Test_seed.to_alcotest prop_index_agrees_with_scan;
  ]
