(* The plan observatory: structural fingerprints (stability, rename /
   conjunct-order invariance, build-side and pushdown-placement
   sensitivity), the Planlog collector (recording, aggregation, JSON
   round-trip, diff semantics), the borrowed whole-column scan, and the
   deterministic plan workload behind the CI gate. *)

open Relalg

let check_bool = Alcotest.(check bool)
let check_int = Alcotest.(check int)
let check_str = Alcotest.(check string)

let mk_table name cols rows = Table.of_rows ~name (Schema.of_list cols) rows

let fixture_db =
  lazy
    (let a =
       mk_table "a" [ "k"; "x" ]
         [
           Row.strings [ "p"; "u" ]; Row.strings [ "q"; "v" ];
           Row.strings [ "p"; "v" ]; Row.strings [ "r"; "w" ];
           Row.strings [ "q"; "u" ]; Row.strings [ "p"; "u" ];
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

let fp db sql =
  Planner.fingerprint db
    (Planner.plan db (Plan.of_query (Sql_parser.parse_query sql)))

(* --------------------------- raw fingerprint -------------------------- *)

let test_fingerprint_hash () =
  let f = Obs.Planlog.fingerprint in
  check_str "deterministic" (f [ "a"; "b" ]) (f [ "a"; "b" ]);
  check_int "16 hex chars" 16 (String.length (f [ "a"; "b" ]));
  check_bool "order-sensitive" false (f [ "a"; "b" ] = f [ "b"; "a" ]);
  (* the separator keeps part boundaries from aliasing *)
  check_bool "boundary-sensitive" false (f [ "a"; "b" ] = f [ "ab" ]);
  check_bool "empty part matters" false (f [ "a"; ""; "b" ] = f [ "a"; "b" ])

(* ----------------------- structural invariances ----------------------- *)

let test_conjunct_order_invariant () =
  let db = Lazy.force fixture_db in
  check_str "AND reorder"
    (fp db "SELECT k FROM a WHERE k = 'p' AND x = 'u'")
    (fp db "SELECT k FROM a WHERE x = 'u' AND k = 'p'");
  check_str "operand flip (Eq commutes)"
    (fp db "SELECT k FROM a WHERE k = 'p'")
    (fp db "SELECT k FROM a WHERE 'p' = k");
  check_bool "different constant is a different plan" false
    (fp db "SELECT k FROM a WHERE k = 'p'"
    = fp db "SELECT k FROM a WHERE k = 'q'")

let test_conjunct_order_property () =
  let db = Lazy.force fixture_db in
  let conjuncts =
    [ "k = 'p'"; "x = 'u'"; "NOT x = 'w'"; "k IN ('p', 'q')" ]
  in
  let sql cs = "SELECT k FROM a WHERE " ^ String.concat " AND " cs in
  let reference = fp db (sql conjuncts) in
  let prop perm =
    (* map the permutation indices onto the conjunct pool *)
    let cs = List.map (List.nth conjuncts) perm in
    fp db (sql cs) = reference
  in
  QCheck.Test.check_exn
    (QCheck.Test.make ~count:50 ~name:"fingerprint conjunct-permutation"
       (QCheck.make (QCheck.Gen.shuffle_l [ 0; 1; 2; 3 ]))
       prop);
  (* the pool is small enough to also check every order outright *)
  let rec permutations = function
    | [] -> [ [] ]
    | l ->
        List.concat_map
          (fun x ->
            List.map
              (fun rest -> x :: rest)
              (permutations (List.filter (fun y -> y <> x) l)))
          l
  in
  List.iter
    (fun perm ->
      check_bool
        ("permutation " ^ String.concat "," (List.map string_of_int perm))
        true (prop perm))
    (permutations [ 0; 1; 2; 3 ])

let test_rename_invariant () =
  (* same table name, same structure, renamed columns: positional
     canonicalization makes the fingerprints agree *)
  let db1 =
    Database.add Database.empty
      (mk_table "t" [ "k"; "x" ]
         [ Row.strings [ "p"; "u" ]; Row.strings [ "q"; "v" ] ])
  in
  let db2 =
    Database.add Database.empty
      (mk_table "t" [ "kk"; "xx" ]
         [ Row.strings [ "p"; "u" ]; Row.strings [ "q"; "v" ] ])
  in
  check_str "renamed columns"
    (fp db1 "SELECT k FROM t WHERE x = 'u' ORDER BY k LIMIT 1")
    (fp db2 "SELECT kk FROM t WHERE xx = 'u' ORDER BY kk LIMIT 1")

let node op children =
  { Planner.op; est = 0.; cost = 0.; actual = -1; ns = 0L; batches = 0;
    children }

let test_placement_sensitive () =
  let db = Lazy.force fixture_db in
  let pred = Expr.Eq (Expr.Col "x", Expr.Const (Value.Str "u")) in
  let scan = node (Planner.Scan "a") [] in
  let below =
    node (Planner.Project [ "x" ]) [ node (Planner.Filter pred) [ scan ] ]
  in
  let above =
    node (Planner.Filter pred) [ node (Planner.Project [ "x" ]) [ scan ] ]
  in
  check_bool "filter placement changes the fingerprint" false
    (Planner.fingerprint db below = Planner.fingerprint db above);
  check_bool "topk vs sort differ" false
    (fp db "SELECT k FROM a ORDER BY k LIMIT 2"
    = fp db "SELECT k FROM a ORDER BY k")

let test_build_side_sensitive () =
  let db = Lazy.force fixture_db in
  let join build_left =
    node (Planner.Hash_join { on = [ ("k", "k") ]; build_left })
      [ node (Planner.Scan "a") []; node (Planner.Scan "b") [] ]
  in
  check_bool "build side changes the fingerprint" false
    (Planner.fingerprint db (join true)
    = Planner.fingerprint db (join false))

(* The acceptance drill end to end: ASURA_PLAN_BUILD forces the join
   build side, and the recorded fingerprints must move. *)
let test_forced_build_side_records_differently () =
  let db = Lazy.force fixture_db in
  let a = Database.find db "a" and b = Database.find db "b" in
  let fps_under side =
    Test_env.with_env "ASURA_PLAN_BUILD" side (fun () ->
        Obs.Planlog.reset ();
        Obs.Config.with_enabled (fun () ->
            ignore (Planner.equi_join ~on:[ ("k", "k") ] a b));
        List.map
          (fun (e : Obs.Planlog.entry) -> e.Obs.Planlog.e_fingerprint)
          (Obs.Planlog.snapshot ()))
  in
  let left = fps_under "left" and right = fps_under "right" in
  Obs.Planlog.reset ();
  check_int "one plan each" 1 (List.length left);
  check_int "one plan each (right)" 1 (List.length right);
  check_bool "forced flip moves the fingerprint" false (left = right)

(* ------------------------------ collector ----------------------------- *)

let sample_op est actual =
  {
    Obs.Planlog.op = "scan t";
    est_rows = est;
    est_cost = est;
    actual_rows = actual;
    actual_ns = 1000.;
    batches = 1;
  }

let record ?(site = "test") ?(query = "q") ?(fingerprint = "f") ops =
  Obs.Planlog.record ~site ~fingerprint ~query ~est_cost:10. ~total_ns:5000.
    ~rows_out:3 ops

let test_record_aggregates () =
  Obs.Planlog.reset ();
  Obs.Config.with_enabled (fun () ->
      record [ sample_op 10. 20 ];
      record [ sample_op 10. 20 ];
      record ~site:"other" [ sample_op 10. 20 ]);
  let snap = Obs.Planlog.snapshot () in
  check_int "two (site, fingerprint) keys" 2 (List.length snap);
  let e =
    List.find (fun (e : Obs.Planlog.entry) -> e.Obs.Planlog.e_site = "test")
      snap
  in
  check_int "execs summed" 2 e.Obs.Planlog.e_execs;
  check_int "rows summed" 6 e.Obs.Planlog.e_rows_out;
  check_int "op actuals summed" 40
    e.Obs.Planlog.e_ops.(0).Obs.Planlog.o_actual_rows;
  Obs.Planlog.reset ();
  record [ sample_op 10. 20 ];
  check_int "no recording while disabled" 0
    (List.length (Obs.Planlog.snapshot ()))

let test_misest () =
  Obs.Planlog.reset ();
  Obs.Config.with_enabled (fun () -> record [ sample_op 10. 1000 ]);
  let e = List.hd (Obs.Planlog.snapshot ()) in
  (* symmetric 1-smoothed ratio: (1000+1)/(10+1) = 91.0 *)
  Alcotest.(check (float 0.001)) "misest" 91.0 (Obs.Planlog.misest e);
  Obs.Planlog.reset ()

let test_json_roundtrip () =
  Obs.Planlog.reset ();
  Obs.Config.with_enabled (fun () ->
      record [ sample_op 10. 20; sample_op 5. 5 ];
      record ~site:"other" ~query:"q2" ~fingerprint:"g" [ sample_op 1. 1 ]);
  let snap = Obs.Planlog.snapshot () in
  Obs.Planlog.reset ();
  let back = Obs.Planlog.of_json (Obs.Planlog.entries_to_json snap) in
  check_int "entry count survives" (List.length snap) (List.length back);
  List.iter2
    (fun (a : Obs.Planlog.entry) (b : Obs.Planlog.entry) ->
      check_str "fingerprint" a.Obs.Planlog.e_fingerprint
        b.Obs.Planlog.e_fingerprint;
      check_str "site" a.Obs.Planlog.e_site b.Obs.Planlog.e_site;
      check_str "query" a.Obs.Planlog.e_query b.Obs.Planlog.e_query;
      check_int "execs" a.Obs.Planlog.e_execs b.Obs.Planlog.e_execs;
      check_int "ops" (Array.length a.Obs.Planlog.e_ops)
        (Array.length b.Obs.Planlog.e_ops))
    snap back

let entries_of f =
  Obs.Planlog.reset ();
  Obs.Config.with_enabled f;
  let snap = Obs.Planlog.snapshot () in
  Obs.Planlog.reset ();
  snap

let test_diff () =
  let old_entries =
    entries_of (fun () ->
        record ~query:"q1" ~fingerprint:"f1" [ sample_op 10. 20 ];
        record ~query:"q2" ~fingerprint:"f2" [ sample_op 10. 20 ])
  in
  let new_entries =
    entries_of (fun () ->
        record ~query:"q1" ~fingerprint:"f1-changed" [ sample_op 10. 20 ];
        record ~query:"q3" ~fingerprint:"f3" [ sample_op 10. 20 ])
  in
  let changes, unchanged = Obs.Planlog.diff old_entries new_entries in
  check_int "q1 changed, q2 removed, q3 added" 3 (List.length changes);
  check_int "nothing unchanged" 0 unchanged;
  let kinds =
    List.map
      (fun (c : Obs.Planlog.change) ->
        match (c.Obs.Planlog.before, c.Obs.Planlog.after) with
        | Some _, Some _ -> "changed"
        | Some _, None -> "removed"
        | None, Some _ -> "added"
        | None, None -> "?")
      changes
  in
  check_bool "one of each kind" true
    (List.sort compare kinds = [ "added"; "changed"; "removed" ]);
  (* identical structure at different speeds diffs clean: rebuild the
     same records (fresh timings/exec counts notwithstanding) *)
  let again =
    entries_of (fun () ->
        record ~query:"q1" ~fingerprint:"f1" [ sample_op 10. 20 ];
        record ~query:"q1" ~fingerprint:"f1" [ sample_op 10. 20 ];
        record ~query:"q2" ~fingerprint:"f2" [ sample_op 10. 20 ])
  in
  let changes, unchanged = Obs.Planlog.diff old_entries again in
  check_int "timings and exec counts are not compared" 0
    (List.length changes);
  check_int "both plans unchanged" 2 unchanged

let test_render_change () =
  let old_entries =
    entries_of (fun () ->
        record ~query:"q1" ~fingerprint:"f1" [ sample_op 10. 20 ])
  in
  let new_entries =
    entries_of (fun () ->
        record ~query:"q1" ~fingerprint:"f1x" [ sample_op 10. 40 ])
  in
  let changes, _ = Obs.Planlog.diff old_entries new_entries in
  let text = String.concat "" (List.map Obs.Planlog.render_change changes) in
  let contains needle =
    let nl = String.length needle and hl = String.length text in
    let rec go i =
      i + nl <= hl && (String.sub text i nl = needle || go (i + 1))
    in
    go 0
  in
  check_bool "names both fingerprints" true (contains "f1" && contains "f1x");
  check_bool "shows est vs actual" true
    (contains "est=" && contains "actual=")

(* plan diff compares only documents Systables.classify calls a run
   manifest or a plan snapshot: a bench snapshot or a schema-less file
   would otherwise diff as an empty plan set and pass --strict without
   comparing anything.  Anything else is refused with classify's reason
   (a bench snapshot with plan diff's own). *)
let test_plan_diff_inputs () =
  let verdict text =
    match Systables.classify (Obs.Json.parse_exn text) with
    | Ok (`Run _ | `Plans) -> "compared"
    | Ok `Bench -> "bench"
    | Error reason -> reason
  in
  check_str "bench snapshot" "bench" (verdict {|{"schema":"asura-bench/3"}|});
  check_str "bare array" "document has no \"schema\" field" (verdict "[]");
  check_str "profile" "unsupported schema \"asura-stats/1\""
    (verdict {|{"schema":"asura-stats/1"}|});
  check_str "plan snapshot" "compared"
    (verdict (Obs.Json.to_string (Obs.Planlog.entries_to_json [])));
  check_str "run manifest" "compared"
    (verdict (Obs.Json.to_string (Obs.Runlog.manifest ())))

(* ------------------------- sys.plans material ------------------------- *)

let test_systables_shape () =
  let entries =
    entries_of (fun () ->
        record ~query:"q1" ~fingerprint:"f1" [ sample_op 10. 20; sample_op 5. 5 ])
  in
  let plans = Systables.plans_of entries in
  check_str "table name" "sys.plans" (Table.name plans);
  check_int "one row per entry" 1 (Table.cardinality plans);
  check_bool "schema" true
    (Schema.columns (Table.schema plans)
    = [ "fingerprint"; "site"; "query"; "est_cost"; "execs"; "total_ms";
        "rows_out"; "misest" ]);
  let ops = Systables.plan_ops_of entries in
  check_str "ops table name" "sys.plan_ops" (Table.name ops);
  check_int "one row per operator" 2 (Table.cardinality ops);
  check_bool "ops schema" true
    (Schema.columns (Table.schema ops)
    = [ "fingerprint"; "site"; "seq"; "op"; "est_rows"; "est_cost";
        "actual_rows"; "actual_ms"; "batches" ])

(* ------------------------- borrowed table scan ------------------------ *)

let metric_value key =
  Obs.Metrics.count (Obs.Metrics.counter (Obs.Metrics.registry "relalg") key)

let test_borrowed_scan () =
  let db = Lazy.force fixture_db in
  let a = Database.find db "a" in
  (* round-trip: the borrowed single-batch scan drains back to the same
     rows in the same order *)
  let back = Batch.to_table ~name:"a" (Batch.of_table a) in
  check_bool "borrow round-trips" true (Table.rows back = Table.rows a);
  Obs.Config.with_enabled (fun () ->
      let before = metric_value "batch.bytes_borrowed" in
      check_int "count drains the borrowed batch" (Table.cardinality a)
        (Batch.count (Batch.of_table a));
      let after = metric_value "batch.bytes_borrowed" in
      check_bool "borrowed bytes counted, not copied" true (after > before))

(* -------------------------- workload & gating ------------------------- *)

let test_workload_deterministic () =
  let db = Protocol.database () in
  let snap =
    entries_of (fun () ->
        Systables.run_plan_workload db;
        Systables.run_plan_workload db)
  in
  check_bool "workload recorded plans" true (snap <> []);
  List.iter
    (fun (e : Obs.Planlog.entry) ->
      check_str "all under the workload site" Systables.plan_workload_site
        e.Obs.Planlog.e_site;
      (* two runs, identical fingerprints: every entry merged to 2 *)
      check_int ("stable fingerprint for " ^ e.Obs.Planlog.e_query) 2
        e.Obs.Planlog.e_execs)
    snap

(* Two runs of the invariant suite: the second run's prepared plans
   report under the fingerprints of the first, so every sys.plans row
   stays the same with its execution and row counts doubled. *)
let test_suite_plans_doubled () =
  let db = Protocol.database () in
  let run () = ignore (Checker.Invariant.run_all db) in
  let rows () = Table.rows (Systables.plans_of (Obs.Planlog.snapshot ())) in
  Obs.Planlog.reset ();
  let first, second =
    Obs.Config.with_enabled (fun () ->
        run ();
        let first = rows () in
        run ();
        (first, rows ()))
  in
  Obs.Planlog.reset ();
  check_bool "suite ran plans" true (first <> []);
  (* columns 4 and 6 are execs and rows_out; 5, total_ms, is a timing *)
  let untimed r = Array.mapi (fun i v -> if i = 5 then Value.Null else v) r in
  let doubled r =
    Array.map
      (function Value.Int n -> Value.Int (2 * n) | v -> v)
      (untimed r)
  in
  check_bool "same rows, execs and rows_out doubled" true
    (List.map doubled first = List.map untimed second)

(* A malformed ASURA_PLAN_BUILD is reported, not read as unset: a typo
   must not silently turn the planted-regression drill off.  The empty
   string is how a test hands an unset variable back. *)
let test_plan_build_env_invalid () =
  List.iter
    (fun (v, invalid) ->
      Test_env.with_env "ASURA_PLAN_BUILD" v (fun () ->
          Alcotest.(check (option string))
            (Printf.sprintf "ASURA_PLAN_BUILD=%S" v)
            (if invalid then Some v else None)
            (Planner.env_invalid ())))
    [ ("lfet", true); ("both", true); (" left", true); ("left", false);
      ("RIGHT", false); ("r", false); ("", false) ]

(* Golden fingerprints of the committed bench/PLANS.json baseline: if
   one of these moves, the planner's physical choices changed and the
   baseline (plus this list) must be regenerated deliberately —
   `asura plan snapshot` then `asura plan diff` to see what moved. *)
let test_workload_golden () =
  Test_env.with_env "ASURA_PLAN_BUILD" "" @@ fun () ->
  let db = Protocol.database () in
  let snap = entries_of (fun () -> Systables.run_plan_workload db) in
  let fps =
    List.map
      (fun (e : Obs.Planlog.entry) ->
        (e.Obs.Planlog.e_query, e.Obs.Planlog.e_fingerprint))
      snap
  in
  List.iter
    (fun (query, golden) ->
      match List.assoc_opt query fps with
      | None -> Alcotest.failf "workload lost query %s" query
      | Some got -> check_str query golden got)
    [
      ("SELECT * FROM D WHERE inmsg = 'readex'", "bc9812e327582277");
      ("SELECT DISTINCT locmsg FROM D ORDER BY locmsg", "7a94ec1acb571ae7");
      ( "SELECT dirst, dirpv FROM D WHERE dirst = 'MESI' AND NOT dirpv = \
         'one'",
        "f7d77e8427c1ca3a" );
      ( "SELECT inmsg, COUNT(*) FROM D GROUP BY inmsg ORDER BY count DESC \
         LIMIT 5",
        "ca4bcb66a94977cd" );
      ("distinct", "9283480963e69406");
      ("group count by [inmsg, dirst]", "4224a62f3b622ea8");
      ("join [dirst=dirst, dirpv=dirpv]", "4f285991ed456563");
    ]

let test_explain_v2 () =
  let db = Lazy.force fixture_db in
  let r = Planner.analyze db "SELECT k FROM a WHERE x = 'u'" in
  Obs.Planlog.reset ();
  check_int "fingerprint present" 16 (String.length r.Planner.fingerprint);
  match Planner.to_json r with
  | Obs.Json.Obj members ->
      check_bool "schema bumped" true
        (List.assoc_opt "schema" members
        = Some (Obs.Json.Str "asura-explain/2"));
      check_bool "fingerprint member" true
        (List.assoc_opt "fingerprint" members
        = Some (Obs.Json.Str r.Planner.fingerprint))
  | _ -> Alcotest.fail "explain --analyze --json is not an object"

let suite =
  [
    Alcotest.test_case "fingerprint hash" `Quick test_fingerprint_hash;
    Alcotest.test_case "conjunct order invariant" `Quick
      test_conjunct_order_invariant;
    Alcotest.test_case "conjunct permutations (exhaustive)" `Quick
      test_conjunct_order_property;
    Alcotest.test_case "column rename invariant" `Quick test_rename_invariant;
    Alcotest.test_case "pushdown placement sensitive" `Quick
      test_placement_sensitive;
    Alcotest.test_case "build side sensitive" `Quick test_build_side_sensitive;
    Alcotest.test_case "ASURA_PLAN_BUILD flips recorded fingerprints" `Quick
      test_forced_build_side_records_differently;
    Alcotest.test_case "malformed ASURA_PLAN_BUILD is reported" `Quick
      test_plan_build_env_invalid;
    Alcotest.test_case "record aggregates by (site, fingerprint)" `Quick
      test_record_aggregates;
    Alcotest.test_case "misest ratio" `Quick test_misest;
    Alcotest.test_case "json round-trip" `Quick test_json_roundtrip;
    Alcotest.test_case "diff by (site, query)" `Quick test_diff;
    Alcotest.test_case "plan diff compares only plan documents" `Quick
      test_plan_diff_inputs;
    Alcotest.test_case "render change names fingerprints" `Quick
      test_render_change;
    Alcotest.test_case "sys.plans / sys.plan_ops shape" `Quick
      test_systables_shape;
    Alcotest.test_case "borrowed whole-column scan" `Quick test_borrowed_scan;
    Alcotest.test_case "invariant suite twice: same plans, execs doubled"
      `Quick test_suite_plans_doubled;
    Alcotest.test_case "plan workload is deterministic" `Quick
      test_workload_deterministic;
    Alcotest.test_case "plan workload golden fingerprints" `Quick
      test_workload_golden;
    Alcotest.test_case "explain analyze is asura-explain/2" `Quick
      test_explain_v2;
  ]
