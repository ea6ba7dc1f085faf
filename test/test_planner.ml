(* Differential tests of the cost-based planner and its vectorized
   batch engine (lib/relalg/planner.ml, lib/relalg/batch.ml) against
   the row-at-a-time reference path.

   The contract under test is strong: the planner must reproduce the
   reference engine's answers *in row order*, not just as multisets —
   select/project/limit stream in order, group and distinct keep first
   occurrences, sort is stable, and the hash join emits left-major
   pairs exactly like {!Oracle.equi_join}.  The qcheck properties throw
   random logical plans (including NULL cells, ternary predicates,
   joins and set operators) at both engines; set QCHECK_SEED to replay
   a failure. *)

open Relalg

let check_bool = Alcotest.(check bool)
let check_int = Alcotest.(check int)

let contains ~needle haystack =
  let nl = String.length needle and hl = String.length haystack in
  let rec go i = i + nl <= hl && (String.sub haystack i nl = needle || go (i + 1)) in
  go 0

(* ordered row-by-row equality, schema included *)
let same_table t1 t2 =
  Schema.columns (Table.schema t1) = Schema.columns (Table.schema t2)
  && Table.rows t1 = Table.rows t2

let render_rows t =
  String.concat "\n"
    (List.map
       (fun r ->
         String.concat "|" (Array.to_list (Array.map Value.to_string r)))
       (Table.rows t))

(* ------------------------------ fixture ------------------------------- *)

let mk_table name cols rows = Table.of_rows ~name (Schema.of_list cols) rows

let fixture_db =
  lazy
    (let a =
       mk_table "a" [ "k"; "x" ]
         [
           Row.strings [ "p"; "u" ]; Row.strings [ "q"; "v" ];
           Row.strings [ "p"; "v" ]; Row.strings [ "r"; "w" ];
           [| Value.Str "q"; Value.Null |]; Row.strings [ "p"; "u" ];
           [| Value.Null; Value.Str "w" |];
         ]
     in
     let b =
       mk_table "b" [ "k"; "y" ]
         [
           Row.strings [ "p"; "1" ]; Row.strings [ "q"; "2" ];
           Row.strings [ "q"; "3" ]; Row.strings [ "z"; "4" ];
         ]
     in
     Database.add (Database.add Database.empty a) b)

let diff_sql sql =
  let db = Lazy.force fixture_db in
  let q = Sql_parser.parse_query sql in
  let reference = Sql_exec.run_query_reference db q in
  let planned = Planner.run_prepared db (Planner.prepare db q) in
  if not (same_table reference planned) then
    Alcotest.failf "planner diverges from reference on %s\nreference:\n%s\nplanner:\n%s"
      sql (render_rows reference) (render_rows planned)

(* ------------------------ SQL differentials --------------------------- *)

let test_sql_differential () =
  List.iter diff_sql
    [
      "SELECT * FROM a";
      "SELECT * FROM a WHERE k = 'p'";
      "SELECT * FROM a WHERE k = 'p' OR x = 'w'";
      "SELECT x FROM a WHERE NOT k = 'q'";
      "SELECT DISTINCT x FROM a";
      "SELECT DISTINCT k, x FROM a";
      "SELECT k, COUNT(*) FROM a GROUP BY k";
      "SELECT k, x, COUNT(*) FROM a GROUP BY k, x";
      "SELECT COUNT(*) FROM a WHERE x = 'v'";
      "SELECT * FROM a ORDER BY k, x";
      "SELECT * FROM a ORDER BY x DESC, k LIMIT 3";
      "SELECT * FROM a LIMIT 2";
      "SELECT k FROM a UNION SELECT k FROM b";
      "SELECT k FROM a EXCEPT SELECT k FROM b";
      "SELECT k FROM a INTERSECT SELECT k FROM b";
      (* fused filter chains: projections dropping the predicate's
         columns, SELECT * roots, limits and DISTINCT over the chain *)
      "SELECT k FROM a WHERE x = 'v'";
      "SELECT x, k FROM a WHERE k = 'p' AND NOT x = 'u'";
      "SELECT * FROM a WHERE x = 'nope'";
      "SELECT x FROM a WHERE k = 'p' LIMIT 1";
      "SELECT * FROM a WHERE NOT k = 'r' LIMIT 3";
      "SELECT DISTINCT k FROM a WHERE NOT x = 'w'";
      "SELECT DISTINCT x FROM a WHERE k = 'nope'";
      "SELECT k, COUNT(*) FROM a WHERE NOT x = 'u' GROUP BY k";
    ]

(* The planner is the engine inside Sql_exec.run_query: the public
   entry point and the reference oracle must agree on a real workload. *)
let test_sql_entry_point_uses_planner () =
  let db = Lazy.force fixture_db in
  let q = Sql_parser.parse_query "SELECT k, COUNT(*) FROM a GROUP BY k" in
  check_bool "entry point matches oracle" true
    (same_table (Sql_exec.run_query db q) (Sql_exec.run_query_reference db q))

(* ----------------------- top-k under ORDER BY ------------------------- *)

let rec plan_has p (n : Planner.t) =
  p n.Planner.op || List.exists (plan_has p) n.Planner.children

let test_topk_recognized () =
  let db = Lazy.force fixture_db in
  let q = Sql_parser.parse_query "SELECT * FROM a ORDER BY k LIMIT 2" in
  let annotated = Planner.plan db (Plan.of_query q) in
  check_bool "LIMIT over ORDER BY plans as top-k" true
    (plan_has (function Planner.Topk _ -> true | _ -> false) annotated);
  check_bool "no full sort below the top-k" false
    (plan_has (function Planner.Sort _ -> true | _ -> false) annotated)

(* sys.spans is the canonical top-k consumer ("slowest spans"): the
   pushed-down limit must return exactly the reference answer. *)
let test_sys_spans_topk () =
  Obs.Config.with_enabled (fun () ->
      Obs.Trace.reset ();
      Obs.Trace.with_span "outer" (fun () ->
          List.iter
            (fun name -> Obs.Trace.with_span name (fun () -> ignore (Sys.opaque_identity 0)))
            [ "s1"; "s2"; "s3"; "s4"; "s5" ]);
      let db = Systables.attach_live Database.empty in
      Obs.Trace.reset ();
      let sql = "SELECT name, parent FROM sys.spans ORDER BY name DESC LIMIT 3" in
      let q = Sql_parser.parse_query sql in
      let reference = Sql_exec.run_query_reference db q in
      let planned = Planner.run_prepared db (Planner.prepare db q) in
      check_int "top-k returns exactly k rows" 3 (Table.cardinality planned);
      check_bool "sys.spans top-k matches reference" true
        (same_table reference planned);
      check_bool "plans as top-k" true
        (plan_has
           (function Planner.Topk (3, _) -> true | _ -> false)
           (Planner.plan db (Plan.of_query q))))

(* ----------------------- explain --analyze ---------------------------- *)

let test_analyze_est_vs_actual () =
  let db = Lazy.force fixture_db in
  let r = Planner.analyze db "SELECT DISTINCT x FROM a WHERE k = 'p'" in
  check_int "analyze executes the query" 2 (Table.cardinality r.Planner.table);
  check_int "root actual is the result cardinality" 2 r.Planner.root.Planner.actual;
  let rendered = Planner.render_report r in
  List.iter
    (fun needle -> check_bool ("report shows " ^ needle) true (contains ~needle rendered))
    [ "est="; "actual="; "cost="; "distinct"; "scan a" ];
  (* every operator in the tree was executed, so no actual is left unset *)
  let rec all_actual (n : Planner.t) =
    n.Planner.actual >= 0 && List.for_all all_actual n.Planner.children
  in
  check_bool "every operator recorded an actual row count" true
    (all_actual r.Planner.root);
  (* the projection and filter under the distinct run fused on one
     selection vector over the scan: each reports the rows that passed
     the filter, in one batch, as a drained filter chain does *)
  let passed =
    Table.cardinality (Oracle.select (Expr.eq "k" "p") (Database.find db "a"))
  in
  match r.Planner.root with
  | { Planner.op = Planner.Distinct;
      children =
        [ ({ Planner.op = Planner.Project _;
             children = [ ({ Planner.op = Planner.Filter _; _ } as f) ]; _ }
          as p) ]; _ } ->
      check_int "filter actual = rows that passed" passed f.Planner.actual;
      check_int "project actual = rows that passed" passed p.Planner.actual;
      check_int "filter batches" 1 f.Planner.batches;
      check_int "project batches" 1 p.Planner.batches;
      check_bool "distinct keeps at most the filter's rows" true
        (r.Planner.root.Planner.actual <= f.Planner.actual)
  | _ -> Alcotest.fail ("unexpected plan:\n" ^ rendered)

let test_explain_unexecuted () =
  let db = Lazy.force fixture_db in
  let s = Planner.explain db "SELECT k FROM a WHERE x = 'v' ORDER BY k" in
  List.iter
    (fun needle -> check_bool ("explain shows " ^ needle) true (contains ~needle s))
    [ "est="; "cost="; "actual=-"; "filter"; "sort" ]

(* A streaming root (here project over filter over scan) is timed as a
   whole, drain included, like a blocking root; every node of the fused
   chain keeps its actual rows and gets an inclusive time and one batch. *)
let test_analyze_streaming_root () =
  let db = Protocol.database () in
  let sql =
    "SELECT dirst, dirpv FROM D WHERE dirst = 'MESI' AND NOT dirpv = 'one'"
  in
  let r = Planner.analyze db sql in
  let root = r.Planner.root in
  let rec chain (n : Planner.t) =
    n :: (match n.Planner.children with [ c ] -> chain c | _ -> [])
  in
  let ops = List.map (fun (n : Planner.t) -> n.Planner.op) (chain root) in
  check_bool "project over filter over scan" true
    (match ops with
    | [ Planner.Project _; Planner.Filter _; Planner.Scan "D" ] -> true
    | _ -> false);
  let rows = Table.cardinality r.Planner.table in
  List.iter2
    (fun (n : Planner.t) (name, want) ->
      check_int ("actual rows of " ^ name) want n.Planner.actual;
      check_bool ("one batch at least at " ^ name) true (n.Planner.batches >= 1);
      check_bool ("time within the root's at " ^ name) true
        (n.Planner.ns <= root.Planner.ns))
    (chain root)
    [ ("project", rows); ("filter", rows);
      ("scan", Table.cardinality (Database.find db "D")) ];
  check_bool "root time is positive and within the total" true
    (root.Planner.ns > 0L && root.Planner.ns <= r.Planner.total_ns);
  (* the root covers the execution it reports: at least half of the
     wall time around [execute], in one of three runs (a scheduler
     preemption outside the root's window can only shrink it) *)
  let covers () =
    let root =
      Planner.plan db (Plan.of_query (Sql_parser.parse_query sql))
    in
    let t0 = Obs.Clock.now_ns () in
    ignore (Planner.execute db root);
    let elapsed = Obs.Clock.since t0 in
    Int64.mul 2L root.Planner.ns >= elapsed
  in
  check_bool "root time covers the drain" true
    (covers () || covers () || covers ())

(* ---------------------- late materialization -------------------------- *)

let planned db sql =
  Planner.run_prepared db (Planner.prepare db (Sql_parser.parse_query sql))

(* Zero surviving rows: the result keeps the kept columns as its schema,
   shares the input's dictionaries, and still accepts appends. *)
let test_zero_row_results () =
  let db = Lazy.force fixture_db in
  let a = Database.find db "a" in
  let none = Expr.eq "k" "nope" in
  let shares t cols =
    List.for_all2
      (fun j c ->
        Table.dict t j == Table.dict a (Schema.index (Table.schema a) c))
      (List.init (List.length cols) Fun.id)
      cols
  in
  let check_empty what t cols =
    check_int (what ^ ": no rows") 0 (Table.cardinality t);
    Alcotest.(check (list string))
      (what ^ ": schema") cols
      (Schema.columns (Table.schema t));
    check_bool (what ^ ": dictionaries shared") true (shares t cols);
    check_int (what ^ ": appendable") 1
      (Table.cardinality (Table.add t (Array.of_list (List.map Value.str cols))))
  in
  check_empty "select ~keep" (Planner.select ~keep:[ "x" ] none a) [ "x" ];
  check_empty "select" (Planner.select none a) [ "k"; "x" ];
  check_empty "SQL projection root"
    (planned db "SELECT x, k FROM a WHERE k = 'nope'")
    [ "x"; "k" ];
  check_empty "SQL SELECT * root"
    (planned db "SELECT * FROM a WHERE k = 'nope'")
    [ "k"; "x" ]

(* The root filter copies only the kept columns of the surviving rows. *)
let test_bytes_copied_kept_only () =
  let db = Lazy.force fixture_db in
  let a = Database.find db "a" in
  let copied () =
    Obs.Metrics.count
      (Obs.Metrics.counter (Obs.Metrics.registry "relalg") "batch.bytes_copied")
  in
  let word = Sys.word_size / 8 in
  Obs.Config.with_enabled (fun () ->
      let delta f =
        let before = copied () in
        let t = f () in
        (t, copied () - before)
      in
      let expect what ~cols f =
        let t, d = delta f in
        check_int what (cols * word * Table.cardinality t) d
      in
      expect "programmatic: 1 column x surviving rows" ~cols:1 (fun () ->
          Planner.select ~keep:[ "k" ] (Expr.eq "x" "v") a);
      expect "SQL root: 1 column x kept rows" ~cols:1 (fun () ->
          planned db "SELECT x FROM a WHERE NOT k = 'p' LIMIT 2");
      expect "SELECT *: 2 columns x surviving rows" ~cols:2 (fun () ->
          planned db "SELECT * FROM a WHERE k = 'p'"))

(* ----------------- join: zero-copy semijoin shape --------------------- *)

(* Joining D back to the distinct summary of its own key columns matches
   every row exactly once in order — the shape Batch.join_tables returns
   zero-copy.  It must still agree with Oracle.equi_join row for row. *)
let test_join_identity_shape () =
  let d = Protocol.Dir_controller.table () in
  let on = [ ("dirst", "dirst"); ("dirpv", "dirpv") ] in
  let states = Oracle.distinct (Table.project [ "dirst"; "dirpv" ] d) in
  let vec = Batch.join_tables ~on d states in
  let ref_ = Oracle.equi_join ~on d states in
  check_int "every row matches once" (Table.cardinality d) (Table.cardinality vec);
  check_bool "vectorized join equals reference in order" true
    (same_table vec ref_)

(* A key of many columns: the product of per-column selectivities would
   estimate the self-join of D at about one row; the larger side's
   distinct key count keeps it at |D|. *)
let test_join_estimate_wide_key () =
  let d = Protocol.Dir_controller.table () in
  let on = List.map (fun c -> (c, c)) (Schema.columns (Table.schema d)) in
  Obs.Config.with_enabled @@ fun () ->
  Obs.Planlog.reset ();
  check_int "every row matches itself" (Table.cardinality d)
    (Table.cardinality (Planner.equi_join ~on d d));
  match Obs.Planlog.snapshot () with
  | [ e ] ->
      let m = Obs.Planlog.misest e in
      check_bool (Printf.sprintf "misest %.1f < 2" m) true (m < 2.)
  | es -> Alcotest.failf "expected one plan, got %d" (List.length es)

(* An EXCEPT whose right input holds every left row, the shape of the
   mapping proof's [D EXCEPT reconstructed] on a sound mapping, comes
   out empty; containment estimates it at the left's distinct rows less
   the right's, not at half the left's. *)
let test_except_estimate_contained () =
  let d = Protocol.Dir_controller.table () in
  Obs.Config.with_enabled @@ fun () ->
  Obs.Planlog.reset ();
  check_int "nothing left" 0 (Table.cardinality (Planner.except d d));
  match Obs.Planlog.snapshot () with
  | [ e ] ->
      let m = Obs.Planlog.misest e in
      check_bool (Printf.sprintf "misest %.1f < 2" m) true (m < 2.)
  | es -> Alcotest.failf "expected one plan, got %d" (List.length es)

(* -------------------------- random plans ------------------------------ *)

let cell_gen =
  QCheck.Gen.(
    frequency
      [ (8, map (fun s -> Value.Str s) (oneofl [ "p"; "q"; "r"; "u"; "v" ]));
        (2, return Value.Null) ])

let table_gen ~name ~cols =
  QCheck.Gen.(
    let* n = int_bound 40 in
    let* rows =
      list_repeat n
        (let* cells = flatten_l (List.map (fun _ -> cell_gen) cols) in
         return (Array.of_list cells))
    in
    return (Table.of_rows ~name (Schema.of_list cols) rows))

(* Six columns over seven values plus NULL, with every column's
   dictionary padded to thirteen values: a key of five or six columns
   spans at least 13^5 codes, past the dense direct-address limit
   (65,536), so distinct and group over it run the hashed index.  A row
   is fresh, a copy of an earlier row, or an earlier row with one cell
   changed, so keys repeat and near misses share all columns but one. *)
let wide_cols = [ "c0"; "c1"; "c2"; "c3"; "c4"; "c5" ]

let wide_table_gen ~name =
  QCheck.Gen.(
    let cell =
      frequency
        [ (9, map (fun i -> Value.Str (Printf.sprintf "v%d" i)) (int_bound 6));
          (1, return Value.Null) ]
    in
    let fresh = array_repeat 6 cell in
    let rec build acc k =
      if k = 0 then return (List.rev acc)
      else
        let* row =
          match acc with
          | [] -> fresh
          | _ ->
              frequency
                [
                  (3, fresh);
                  (3, oneofl acc);
                  ( 4,
                    let* r = oneofl acc and* j = int_bound 5 and* v = cell in
                    let r = Array.copy r in
                    r.(j) <- v;
                    return r );
                ]
        in
        build (row :: acc) (k - 1)
    in
    let* n = int_bound 60 in
    let* rows = build [] n in
    let pad =
      List.init 13 (fun i ->
          Array.make 6 (Value.Str (Printf.sprintf "v%d" (12 - i))))
    in
    (* the padding rows intern the values; the kept rows share those
       dictionaries *)
    return
      (Table.filter_idx
         (fun i -> i >= 13)
         (Table.of_rows ~name (Schema.of_list wide_cols) (pad @ rows))))

(* A predicate over the wide table's columns. *)
let wide_pred_gen =
  QCheck.Gen.(
    let base =
      let* c = oneofl wide_cols and* v = oneofl [ "v0"; "v1"; "v2" ] in
      oneofl [ Expr.eq c v; Expr.neq c v; Expr.eq_null c; Expr.isin c [ v; "v3" ] ]
    in
    let* a = base and* b = base in
    oneofl [ a; Expr.Not a; Expr.(a &&& b); Expr.(a ||| b) ])

let pred_gen =
  QCheck.Gen.(
    let base =
      oneof
        [
          (let* c = oneofl [ "k"; "x" ] and* v = oneofl [ "p"; "q"; "u" ] in
           return (Expr.eq c v));
          (let* c = oneofl [ "k"; "x" ] and* v = oneofl [ "p"; "v" ] in
           return (Expr.neq c v));
          (let* c = oneofl [ "k"; "x" ] in
           return (Expr.eq_null c));
          (let* c = oneofl [ "k"; "x" ] in
           return (Expr.isin c [ "p"; "u" ]));
        ]
    in
    let* a = base and* b = base and* c = base in
    oneofl
      [
        a; Expr.Not a; Expr.(a &&& b); Expr.(a ||| b);
        Expr.ternary a b c; Expr.(Not (a ||| b) &&& c);
      ])

(* a chain of schema-preserving operators over [a (k, x)] *)
let chain_gen =
  QCheck.Gen.(
    let op sub =
      let* sub = sub in
      oneof
        [
          map (fun p -> Plan.Select (p, sub)) pred_gen;
          return (Plan.Distinct sub);
          return (Plan.Sort ([ ("k", `Asc); ("x", `Desc) ], sub));
          (let* n = int_bound 8 in
           return (Plan.Limit (n, sub)));
          return sub;
        ]
    in
    op (op (return (Plan.Scan "a"))))

let plan_gen =
  QCheck.Gen.(
    let* c1 = chain_gen and* c2 = chain_gen in
    oneofl
      [
        c1;
        Plan.Project ([ "k" ], c1);
        Plan.Group_count ([ "k" ], c1);
        Plan.Group_count ([ "k"; "x" ], c1);
        Plan.Count c1;
        Plan.Union (c1, c2);
        Plan.Except (c1, c2);
        Plan.Intersect (c1, c2);
        Plan.Limit (3, Plan.Sort ([ ("x", `Asc) ], c1));
      ])

let prop_plan_differential =
  QCheck.Test.make ~count:400
    ~name:"random plans: planner equals reference engine in row order"
    (QCheck.make
       QCheck.Gen.(pair (table_gen ~name:"a" ~cols:[ "k"; "x" ]) plan_gen)
       ~print:(fun (a, p) ->
         Printf.sprintf "a(%d rows), %s" (Table.cardinality a)
           (Plan.explain p)))
    (fun (a, p) ->
      let db = Database.add Database.empty a in
      same_table (Oracle.execute db p) (Planner.execute db (Planner.plan db p)))

(* programmatic operators: the checker/solver-facing entry points *)
let prop_programmatic_differential =
  QCheck.Test.make ~count:300
    ~name:"programmatic select/group/distinct/join match the oracle"
    (QCheck.make
       QCheck.Gen.(
         quad
           (table_gen ~name:"a" ~cols:[ "k"; "x" ])
           (table_gen ~name:"b" ~cols:[ "k"; "y" ])
           (wide_table_gen ~name:"w")
           pred_gen)
       ~print:(fun (a, b, w, p) ->
         Printf.sprintf "a(%d rows), b(%d rows), %s\nw:\n%s"
           (Table.cardinality a) (Table.cardinality b) (Expr.to_sql p)
           (render_rows w)))
    (fun (a, b, w, p) ->
      let group_matches ~by t =
        Table.rows (Planner.group_count ~by t)
        = List.map
            (fun (key, n) -> Array.append key [| Value.Int n |])
            (Oracle.group_count ~by t)
      in
      same_table (Planner.select p a) (Oracle.select p a)
      && same_table (Planner.distinct a) (Oracle.distinct a)
      && group_matches ~by:[ "k" ] a
      (* the hashed index: keys of five and six columns *)
      && same_table (Planner.distinct w) (Oracle.distinct w)
      && group_matches ~by:wide_cols w
      && group_matches ~by:[ "c5"; "c3"; "c1"; "c0"; "c2" ] w
      && same_table
           (Planner.equi_join ~on:[ ("k", "k") ] a b)
           (Oracle.equi_join ~on:[ ("k", "k") ] a b))

(* DISTINCT and GROUP BY on the selection vector, over keys wide enough
   for the hashed index: over a filter, over a projection that drops the
   predicate's column, over a limit, over a blocking sort, with no row
   selected, and on a table whose rows are all equal. *)
let wide_dedup_agrees (w, p, n, equal_rows) =
  let w =
    if equal_rows && not (Table.is_empty w) then
      Table.gather ~name:"w" w (List.init (n + 2) (fun _ -> 0))
    else w
  in
  let db = Database.add Database.empty w in
  let f = Plan.Select (p, Plan.Scan "w") in
  let tail = [ "c1"; "c2"; "c3"; "c4"; "c5" ] in
  let no_c0 = Plan.Select (Expr.neq "c0" "v1", Plan.Scan "w") in
  let sorted = Plan.Sort ([ ("c2", `Desc); ("c4", `Asc) ], f) in
  let nothing = Plan.Select (Expr.eq "c3" "absent", Plan.Scan "w") in
  let plans =
    [
      Plan.Distinct f;
      Plan.Distinct (Plan.Project (tail, no_c0));
      Plan.Distinct (Plan.Project (List.rev tail, f));
      Plan.Distinct (Plan.Limit (n, f));
      Plan.Distinct sorted;
      Plan.Distinct (Plan.Project (tail, sorted));
      Plan.Distinct nothing;
      Plan.Distinct (Plan.Scan "w");
      Plan.Group_count (wide_cols, f);
      Plan.Group_count (tail, Plan.Project (tail, no_c0));
      Plan.Group_count (List.rev tail, Plan.Limit (n, f));
      Plan.Group_count (wide_cols, sorted);
      Plan.Group_count (tail, nothing);
      Plan.Group_count ([ "c4"; "c0"; "c5"; "c1"; "c3" ], Plan.Scan "w");
    ]
  in
  List.for_all
    (fun plan ->
      same_table (Oracle.execute db plan)
        (Planner.execute db (Planner.plan db plan)))
    plans

(* Filter chains the executor fuses — projections that drop the
   predicate's columns, limits, DISTINCT, COUNT and GROUP over a filter,
   filters over a materialized input — against the reference engine,
   plus the programmatic [select ~keep] and the wide-key dedups above. *)
let prop_fused_chain_differential =
  QCheck.Test.make ~count:300
    ~name:"fused filter chains equal the reference engine in row order"
    (QCheck.make
       QCheck.Gen.(
         pair
           (quad
              (table_gen ~name:"a" ~cols:[ "k"; "x" ])
              pred_gen pred_gen (int_bound 6))
           (quad (wide_table_gen ~name:"w") wide_pred_gen (int_bound 40) bool))
       ~print:(fun ((a, p, q, n), (w, wp, wn, equal_rows)) ->
         Printf.sprintf
           "a(%d rows), %s, %s, %d\nwide: %s, %d, all rows equal: %b\nw:\n%s"
           (Table.cardinality a) (Expr.to_sql p) (Expr.to_sql q) n
           (Expr.to_sql wp) wn equal_rows (render_rows w)))
    (fun ((a, p, q, n), wide) ->
      let db = Database.add Database.empty a in
      let f = Plan.Select (p, Plan.Scan "a") in
      let plans =
        [
          f;
          Plan.Project ([ "k" ], f);
          Plan.Project ([ "x"; "k" ], f);
          Plan.Limit (n, f);
          Plan.Limit (n, Plan.Project ([ "x" ], f));
          Plan.Distinct (Plan.Project ([ "k" ], f));
          Plan.Count f;
          Plan.Group_count ([ "x" ], f);
          Plan.Project ([ "k" ], Plan.Select (q, f));
          Plan.Project ([ "x" ], Plan.Select (p, Plan.Distinct (Plan.Scan "a")));
        ]
      in
      List.for_all
        (fun plan ->
          same_table (Oracle.execute db plan)
            (Planner.execute db (Planner.plan db plan)))
        plans
      && List.for_all
           (fun keep ->
             same_table (Planner.select ~keep p a)
               (Table.project keep (Oracle.select p a)))
           [ [ "k" ]; [ "x" ]; [ "x"; "k" ] ]
      && wide_dedup_agrees wide)

(* The emptiness probe against the reference, on NULL-bearing tables
   and ternary predicates. *)
let prop_exists_differential =
  QCheck.Test.make ~count:300
    ~name:"Planner.exists equals a non-empty reference selection"
    (QCheck.make
       QCheck.Gen.(pair (table_gen ~name:"a" ~cols:[ "k"; "x" ]) pred_gen)
       ~print:(fun (a, p) ->
         Printf.sprintf "a(%d rows), %s" (Table.cardinality a) (Expr.to_sql p)))
    (fun (a, p) ->
      let want = not (Table.is_empty (Oracle.select p a)) in
      Planner.exists p a = want)

(* ------------------------ prepared queries ---------------------------- *)

(* Sql_exec.query prepares each text once per table version.  Random
   edits of D — rows dropped, rows duplicated (both through
   Database.replace) and INSERT — interleave with repeated runs of every
   SQL invariant; each cached answer must equal the reference
   interpreter's on the same database. *)
type edit = Drop of int | Dup of int | Insert of int | Run

let edit_to_string = function
  | Drop k -> Printf.sprintf "drop %d" k
  | Dup k -> Printf.sprintf "dup %d" k
  | Insert k -> Printf.sprintf "insert %d" k
  | Run -> "run"

let sql_invariants =
  List.filter_map
    (fun (inv : Checker.Invariant.t) ->
      match inv.check with Sql q -> Some q | Native _ -> None)
    Checker.Invariant.all

(* Rows that two seeded protocol bugs add to D: a wrong presence-vector
   op on an exclusive grant, and a dealloc that never completes to the
   requester.  Each violates one SQL invariant, so inserting one changes
   the answers the cache must keep up with. *)
let seeded_rows =
  lazy
    (let d = Database.find (Protocol.database ()) "D" in
     let open Protocol in
     let map = Ctrl_spec.map_scenario Dir_controller.spec in
     List.concat_map
       (fun spec ->
         List.filter
           (fun r -> not (Table.mem d r))
           (Table.rows (fst (Ctrl_spec.generate spec))))
       [
         map "ack-exclusive" (fun s ->
             {
               s with
               emit =
                 List.map
                   (fun (c, o) ->
                     if c = "nxtdirpv" then (c, Ctrl_spec.Out "inc") else (c, o))
                   s.emit;
             });
         map "wb-mack-compl" (fun s ->
             { s with emit = List.filter (fun (c, _) -> c <> "locmsg") s.emit });
       ])

(* [Drop k]/[Dup k] drop or double every row [i] with [i mod 97 = k mod
   97]; [Insert k] adds seeded row [k] *)
let apply_edit db = function
  | Run -> db
  | Insert k ->
      let rows = Lazy.force seeded_rows in
      let row = List.nth rows (k mod List.length rows) in
      fst
        (Sql_exec.exec db
           (Printf.sprintf "INSERT INTO D VALUES (%s)"
              (String.concat ", " (Array.to_list (Array.map Value.to_sql row)))))
  | (Drop k | Dup k) as e ->
      let d = Database.find db "D" in
      let idx =
        List.concat_map
          (fun i ->
            if i mod 97 <> k mod 97 then [ i ]
            else match e with Dup _ -> [ i; i ] | _ -> [])
          (List.init (Table.cardinality d) Fun.id)
      in
      Database.replace db (Table.gather d idx)

let prop_prepared_differential =
  QCheck.Test.make ~count:12
    ~name:"prepared queries equal the reference across table edits"
    (QCheck.make
       QCheck.Gen.(
         list_size (int_range 1 6)
           (frequency
              [
                (3, return Run);
                (1, map (fun k -> Drop k) nat);
                (1, map (fun k -> Dup k) nat);
                (1, map (fun k -> Insert k) nat);
              ]))
       ~print:(fun es -> String.concat "; " (List.map edit_to_string es)))
    (fun edits ->
      let check_all db =
        List.for_all
          (fun src ->
            same_table (Sql_exec.query db src)
              (Sql_exec.run_query_reference db (Sql_parser.parse_query src)))
          sql_invariants
      in
      let db = Protocol.database () in
      check_all db
      && snd
           (List.fold_left
              (fun (db, ok) e ->
                let db = apply_edit db e in
                (db, ok && check_all db))
              (db, true) edits))

let plan_cache_misses () =
  Obs.Metrics.count
    (Obs.Metrics.counter (Obs.Metrics.registry "relalg") "plan_cache.misses")

let planlog_queries () =
  List.map (fun (e : Obs.Planlog.entry) -> e.e_query) (Obs.Planlog.snapshot ())

(* The tag that sends a prepared text back to the planner. *)
let test_prepared_dispatch () =
  let db = Lazy.force fixture_db in
  let src = "SELECT x FROM a WHERE k = 'p'" in
  let reference = Sql_exec.run_query_reference db (Sql_parser.parse_query src) in
  Obs.Config.with_enabled @@ fun () ->
  Obs.Planlog.reset ();
  ignore (Sql_exec.query db src);
  let misses = plan_cache_misses () in
  check_bool "same text, same tables: cached" true
    (same_table reference (Sql_exec.query db src));
  check_int "no re-plan" misses (plan_cache_misses ());
  let db' = Database.replace db (Table.gather (Database.find db "a") [ 0; 1 ]) in
  check_int "edited table: new rows" 1
    (Table.cardinality (Sql_exec.query db' src));
  check_int "edited table re-plans" (misses + 1) (plan_cache_misses ());
  Obs.Planlog.reset ();
  ignore (Sql_exec.query db src);
  Alcotest.(check (list string))
    "the plan log names the text" [ src ] (planlog_queries ())

(* ------------------------- indexed probes ----------------------------- *)

(* [col = literal] conjuncts probed through a hash index: literals
   outside the dictionary ("zz") and NULL, the conjunct alone or with a
   residual on either side. *)
let prop_indexed_exists =
  QCheck.Test.make ~count:300
    ~name:"Planner.exists ~indexes equals the scan and Oracle.select"
    (QCheck.make
       QCheck.Gen.(
         triple
           (table_gen ~name:"a" ~cols:[ "k"; "x" ])
           (pair (oneofl [ "k"; "x" ])
              (oneofl
                 [ Value.Str "p"; Value.Str "q"; Value.Str "u"; Value.Str "zz";
                   Value.Null ]))
           pred_gen)
       ~print:(fun (a, (c, v), p) ->
         Printf.sprintf "a(%d rows), %s = %s, %s" (Table.cardinality a) c
           (Value.to_sql v) (Expr.to_sql p)))
    (fun (a, (c, v), p) ->
      let key = Expr.Eq (Expr.Col c, Expr.Const v) in
      List.for_all
        (fun e ->
          let want = not (Table.is_empty (Oracle.select e a)) in
          Planner.exists e a = want
          && List.for_all
               (fun indexes -> Planner.exists ~indexes e a = want)
               [ [ "k" ]; [ "x" ]; [ "k"; "x" ] ])
        [ key; Expr.(key &&& p); Expr.(p &&& key) ])

(* With telemetry on, an indexed probe reports the lookup it ran. *)
let test_indexed_exists_observed () =
  let a = Database.find (Lazy.force fixture_db) "a" in
  Obs.Config.with_enabled @@ fun () ->
  Obs.Planlog.reset ();
  check_bool "found" true
    (Planner.exists ~indexes:[ "k" ] Expr.(eq "k" "p" &&& eq "x" "v") a);
  match Obs.Planlog.snapshot () with
  | [ e ] ->
      Alcotest.(check (list string))
        "limit over the residual filter over the lookup"
        [ "limit 1"; "filter x = 'v'"; "index lookup a.k = 'p'" ]
        (Array.to_list (Array.map (fun o -> o.Obs.Planlog.o_op) e.e_ops));
      check_int "lookup rows" 3 e.e_ops.(2).o_actual_rows
  | es -> Alcotest.failf "expected one plan, got %d" (List.length es)

let suite =
  [
    Alcotest.test_case "SQL differential: planner vs reference" `Quick
      test_sql_differential;
    Alcotest.test_case "Sql_exec.run_query routes through the planner" `Quick
      test_sql_entry_point_uses_planner;
    Alcotest.test_case "LIMIT over ORDER BY becomes top-k" `Quick
      test_topk_recognized;
    Alcotest.test_case "sys.spans top-k pushes the limit below the sort" `Quick
      test_sys_spans_topk;
    Alcotest.test_case "explain --analyze reports est vs actual rows" `Quick
      test_analyze_est_vs_actual;
    Alcotest.test_case "explain renders cost estimates unexecuted" `Quick
      test_explain_unexecuted;
    Alcotest.test_case "semijoin-shaped hash join matches the oracle row for row"
      `Quick test_join_identity_shape;
    Alcotest.test_case "join estimate holds on a key of many columns" `Quick
      test_join_estimate_wide_key;
    Alcotest.test_case "except estimate holds on a contained right input"
      `Quick test_except_estimate_contained;
    QCheck_alcotest.to_alcotest prop_plan_differential;
    QCheck_alcotest.to_alcotest prop_programmatic_differential;
    Alcotest.test_case "explain --analyze times a streaming root whole" `Quick
      test_analyze_streaming_root;
    Alcotest.test_case "zero-row results keep schema and dictionaries" `Quick
      test_zero_row_results;
    Alcotest.test_case "bytes copied: kept columns x surviving rows" `Quick
      test_bytes_copied_kept_only;
    Test_seed.to_alcotest prop_fused_chain_differential;
    Test_seed.to_alcotest prop_exists_differential;
    Test_seed.to_alcotest prop_prepared_differential;
    Alcotest.test_case "prepared queries: re-plan tags and dispatch" `Quick
      test_prepared_dispatch;
    Test_seed.to_alcotest prop_indexed_exists;
    Alcotest.test_case "indexed probe reports its index lookup" `Quick
      test_indexed_exists_observed;
  ]
