(* The "why" diagnostics: from a failing verdict back to the table rows
   that caused it.

   The golden test reproduces the paper's Figure 4 narrative end to end:
   on the VC2/VC4 assignment the deadlock explanation must name the wb
   and readex transitions and their virtual channels, with each witness
   traced back to concrete controller rows.  For invariants, the
   explanation runs its query through the planner, and the qcheck
   property pins the witness contract: every shown violating
   row has witnesses, each satisfies the WHERE predicate and equals the
   row on the projected columns. *)

open Relalg

let check_bool = Alcotest.(check bool)

let contains ~needle haystack =
  let nl = String.length needle and hl = String.length haystack in
  let rec go i = i + nl <= hl && (String.sub haystack i nl = needle || go (i + 1)) in
  go 0

let assert_contains what ~needle haystack =
  if not (contains ~needle haystack) then
    Alcotest.failf "%s: expected to find %S in:\n%s" what needle haystack

(* -------------------------- why deadlock ------------------------------ *)

(* The paper's Figure 4 story on the VC2/VC4 assignment, loaded through
   the same table round-trip the CSV path uses: the narrative must name
   the writeback (wb -> mwrite) and read-exclusive (readex -> mread)
   transitions and both virtual channels of the surviving cycle. *)
let test_why_deadlock_golden () =
  let v =
    Checker.Vcassign.of_table
      (Checker.Vcassign.to_table Checker.Vcassign.with_vc4)
  in
  let r = Checker.Deadlock.analyze v in
  check_bool "the VC2/VC4 cycle survives" false
    (Checker.Deadlock.is_deadlock_free r);
  let text = Checker.Why.deadlock r in
  assert_contains "cycle channels" ~needle:"VC2 -> VC4 -> VC2" text;
  assert_contains "writeback transition" ~needle:"consuming wb, sends mwrite"
    text;
  assert_contains "read-exclusive transition"
    ~needle:"consuming readex, sends mread" text;
  assert_contains "wb feeds VC4" ~needle:"into VC4" text;
  assert_contains "controller-row witness" ~needle:"D[row " text;
  let dot = Checker.Why.deadlock_dot r in
  assert_contains "dot names the VC4 node" ~needle:"\"VC4\"" dot;
  assert_contains "dot has witness edges" ~needle:"->" dot

let test_why_deadlock_free () =
  let r = Checker.Deadlock.analyze Checker.Vcassign.debugged in
  let text = Checker.Why.deadlock r in
  assert_contains "deadlock-free narrative" ~needle:"Deadlock free" text

(* The full explanations, byte for byte, against the texts in
   [golden/] (the output of `asura why deadlock --vc NAME [--dot]`).  Each
   cycle edge lists its witnessing dependencies in dependency-table
   order, so these pin that order as well as the verdicts. *)
let golden name =
  (* `dune runtest` runs the suite in test/, `dune exec` from the root *)
  let path =
    List.find Sys.file_exists
      [ Filename.concat "golden" name; Filename.concat "test/golden" name ]
  in
  In_channel.with_open_bin path In_channel.input_all

let test_why_deadlock_texts () =
  List.iter
    (fun (name, v) ->
      let r = Checker.Deadlock.analyze v in
      Alcotest.(check string)
        (name ^ " narrative")
        (golden ("why_deadlock_" ^ name ^ ".txt"))
        (Checker.Why.deadlock r);
      Alcotest.(check string)
        (name ^ " dot")
        (golden ("why_deadlock_" ^ name ^ ".dot"))
        (Checker.Why.deadlock_dot r))
    Checker.Vcassign.
      [ ("initial", initial); ("vc4", with_vc4); ("debugged", debugged) ]

(* ------------------------- why invariant ------------------------------ *)

let test_why_invariant_lineage () =
  let db = Protocol.database () in
  (* a deliberately failing "invariant": its query selects real rows, so
     the explanation must decode their lineage back to the D table *)
  let failing =
    {
      Checker.Invariant.id = "test-readex-rows";
      description = "no readex rows (deliberately false)";
      controller = "D";
      check = Checker.Invariant.Sql "SELECT inmsg, dirst FROM D WHERE inmsg = 'readex'";
    }
  in
  let passed, text = Checker.Why.invariant db failing in
  check_bool "deliberately false invariant fails" false passed;
  assert_contains "violation rows shown" ~needle:"VIOLATED" text;
  assert_contains "lineage decoded" ~needle:"derived from" text;
  assert_contains "base table named" ~needle:"D[row " text;
  (* and a real invariant from the suite still holds, with a narrative *)
  match Checker.Invariant.find "d-mesi-pv-one" with
  | None -> Alcotest.fail "d-mesi-pv-one missing from the suite"
  | Some inv ->
      let passed, text = Checker.Why.invariant db inv in
      check_bool "suite invariant holds" true passed;
      assert_contains "holds narrative" ~needle:"HOLDS" text

let failing_sql id sql =
  {
    Checker.Invariant.id;
    description = "deliberately false";
    controller = "D";
    check = Checker.Invariant.Sql sql;
  }

(* The explanation's query is planned like every other invariant run:
   with telemetry on it lands in the plan observatory under the
   invariant's site. *)
let test_why_invariant_on_planner () =
  let db = Protocol.database () in
  let inv =
    failing_sql "test-readex-planned"
      "SELECT DISTINCT inmsg, dirst FROM D WHERE inmsg = 'readex'"
  in
  Obs.Config.with_enabled @@ fun () ->
  ignore (Checker.Why.invariant db inv);
  let sites =
    List.map
      (fun (e : Obs.Planlog.entry) -> e.Obs.Planlog.e_site)
      (Obs.Planlog.snapshot ())
  in
  check_bool "plan recorded under the invariant's site" true
    (List.mem "invariant:test-readex-planned" sites)

(* One DISTINCT row stands for every readex transition of D: the first
   five are shown and the rest counted. *)
let test_why_invariant_caps_witnesses () =
  let db = Protocol.database () in
  let readex =
    Table.cardinality (Sql_exec.query db "SELECT * FROM D WHERE inmsg = 'readex'")
  in
  check_bool "more readex rows than the cap" true (readex > 5);
  let _, text =
    Checker.Why.invariant db
      (failing_sql "test-readex-one"
         "SELECT DISTINCT inmsg FROM D WHERE inmsg = 'readex'")
  in
  assert_contains "one row" ~needle:"VIOLATED: 1 counterexample row(s)\n" text;
  assert_contains "remaining witnesses counted"
    ~needle:(Printf.sprintf "      (and %d more)\n" (readex - 5))
    text;
  (* witnesses are the rows of D in order: the first is D's first readex *)
  let first =
    let d = Database.find db "D" in
    let j = Schema.index (Table.schema d) "inmsg" in
    let rec go i =
      if (Table.get d i).(j) = Value.Str "readex" then i else go (i + 1)
    in
    go 0
  in
  assert_contains "first witness first"
    ~needle:(Printf.sprintf "    derived from D[%d] + " first)
    text

(* -------------------------- witness contract -------------------------- *)

let projections = [ None; Some [ "k" ]; Some [ "x" ]; Some [ "x"; "k" ] ]

let prop_witness_contract =
  QCheck.Test.make ~count:300
    ~name:"witnesses satisfy the predicate and equal the row"
    (QCheck.make
       QCheck.Gen.(
         quad
           (Test_planner.table_gen ~name:"a" ~cols:[ "k"; "x" ])
           Test_planner.pred_gen (oneofl projections) bool)
       ~print:(fun (a, p, cols, distinct) ->
         Printf.sprintf "a(%d rows), SELECT%s %s WHERE %s"
           (Table.cardinality a)
           (if distinct then " DISTINCT" else "")
           (match cols with None -> "*" | Some cs -> String.concat ", " cs)
           (Expr.to_sql p)))
    (fun (a, p, cols, distinct) ->
      let db = Database.add Database.empty a in
      let q =
        Sql_ast.Select
          {
            distinct;
            columns =
              (match cols with
              | None -> Sql_ast.Star
              | Some cs -> Sql_ast.Columns cs);
            from = "a";
            where = Some p;
            order_by = [];
            limit = None;
          }
      in
      let schema = Table.schema a in
      let cols = Option.value cols ~default:(Schema.columns schema) in
      match Checker.Why.witnesses db q with
      | None -> false
      | Some (t, find) ->
          let rows = Table.rows (Sql_exec.run_query db q) in
          let witnessed = List.map find rows in
          List.for_all2
            (fun row ks ->
              ks <> []
              && List.for_all
                   (fun k ->
                     let base = Table.get t k in
                     Expr.eval schema base p
                     && List.for_all2
                          (fun c v -> Value.equal (Table.cell t base c) v)
                          cols (Array.to_list row))
                   ks)
            rows witnessed
          (* DISTINCT rows split the selected rows between them *)
          && ((not distinct)
             || List.length (List.concat witnessed)
                = List.length
                    (List.filter (fun r -> Expr.eval schema r p) (Table.rows a))))

(* SELECT * keeps rows whole: every result row is decoded to base rows
   identical to it, and the result rows and their witnesses correspond
   one to one. *)
let prop_select_lineage =
  QCheck.Test.make ~count:200
    ~name:"select lineage decodes to the identical base row"
    (QCheck.make
       QCheck.Gen.(
         pair
           (Test_planner.table_gen ~name:"a" ~cols:[ "k"; "x" ])
           (oneofl [ "p"; "q"; "u" ]))
       ~print:(fun (a, v) ->
         Printf.sprintf "a(%d rows), k=%s" (Table.cardinality a) v))
    (fun (a, v) ->
      let db = Database.add Database.empty a in
      let q =
        Sql_parser.parse_query
          (Printf.sprintf "SELECT * FROM a WHERE k = '%s'" v)
      in
      match Checker.Why.witnesses db q with
      | None -> false
      | Some (t, find) ->
          let rows = Table.rows (Sql_exec.run_query db q) in
          let witnessed = List.map find rows in
          List.for_all2
            (fun row ks ->
              ks <> []
              && List.for_all
                   (fun k -> Array.for_all2 Value.equal (Table.get t k) row)
                   ks)
            rows witnessed
          && List.length (List.sort_uniq compare (List.concat witnessed))
             = List.length rows)

(* A DISTINCT projection drops columns and merges rows: each projected
   cell occurs in the row's first witness, and the witnesses of all
   rows cover the whole table. *)
let prop_project_lineage =
  QCheck.Test.make ~count:200
    ~name:"project lineage covers every projected cell"
    (QCheck.make
       (Test_planner.table_gen ~name:"a" ~cols:[ "k"; "x"; "y" ])
       ~print:(fun a -> Printf.sprintf "a(%d rows)" (Table.cardinality a)))
    (fun a ->
      let db = Database.add Database.empty a in
      let q = Sql_parser.parse_query "SELECT DISTINCT x, k FROM a" in
      match Checker.Why.witnesses db q with
      | None -> false
      | Some (t, find) ->
          let rows = Table.rows (Sql_exec.run_query db q) in
          let witnessed = List.map find rows in
          List.for_all2
            (fun row ks ->
              match ks with
              | [] -> false
              | k :: _ ->
                  let base = Table.get t k in
                  Array.for_all
                    (fun v -> Array.exists (Value.equal v) base)
                    row)
            rows witnessed
          && List.length (List.concat witnessed) = Table.cardinality a)

let suite =
  [
    Alcotest.test_case "why deadlock reproduces the Figure 4 narrative"
      `Quick test_why_deadlock_golden;
    Alcotest.test_case "why deadlock on the debugged assignment" `Quick
      test_why_deadlock_free;
    Alcotest.test_case "why invariant decodes violation lineage" `Quick
      test_why_invariant_lineage;
    Alcotest.test_case "why invariant runs on the planner" `Quick
      test_why_invariant_on_planner;
    Alcotest.test_case "why invariant caps witnesses per row" `Quick
      test_why_invariant_caps_witnesses;
    QCheck_alcotest.to_alcotest prop_select_lineage;
    QCheck_alcotest.to_alcotest prop_project_lineage;
    QCheck_alcotest.to_alcotest prop_witness_contract;
    Alcotest.test_case "why deadlock texts match the goldens" `Quick
      test_why_deadlock_texts;
  ]
