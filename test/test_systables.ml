(* The sys.* system tables: live snapshots, manifest ingestion, SQL
   coverage counts against the bitmaps they come from, and scheduling
   determinism of the snapshots. *)

open Relalg

let check = Alcotest.(check bool)
let check_int = Alcotest.(check int)
let check_str = Alcotest.(check string)

(* One table of the one ingest path over these labeled documents. *)
let attached docs name =
  Database.find (fst (Systables.attach_docs docs Database.empty)) name

let small_cfg =
  {
    Mcheck.Semantics.nodes = 2;
    addrs = 1;
    ops = [ "load"; "store" ];
    capacity = 3;
    io_addrs = [];
    lossy = false;
  }

(* Explore the full (small) state space with coverage armed; the budget
   is far above the 2.4k reachable states, so the fired-transition set
   is schedule-independent.  [clear] (not [reset]) first: earlier suites
   register seeded-bug table variants whose shapes would otherwise leak
   into the snapshot; the fresh [load_tables] re-registers the real
   ones. *)
let explore_with_coverage ~domains () =
  Obs.Coverage.clear ();
  Obs.Coverage.with_enabled (fun () ->
      Par.Pool.with_domains domains (fun () ->
          ignore
            (Mcheck.Explore.run ~max_states:50_000
               ~tables:(Mcheck.Semantics.load_tables ()) small_cfg)))

(* ---------------------- sys.coverage golden rows ---------------------- *)

let test_coverage_golden () =
  explore_with_coverage ~domains:1 ();
  let snap = Obs.Coverage.snapshot () in
  check "mcheck registered coverage" true (snap <> []);
  let t = Systables.coverage_of (Obs.Coverage.snapshot ()) in
  Obs.Coverage.clear ();
  (* one row per controller-table row, across every registered table *)
  let total =
    List.fold_left
      (fun acc (tc : Obs.Coverage.table_coverage) -> acc + tc.rows)
      0 snap
  in
  check_int "one sys.coverage row per table row" total (Table.cardinality t);
  (* the bitmaps were recorded against the figure-4 controller tables,
     so each registered name resolves and its row count is the golden
     generated-table cardinality — and every row decodes *)
  List.iter
    (fun (tc : Obs.Coverage.table_coverage) ->
      match Protocol.find tc.name with
      | None -> Alcotest.failf "unknown controller %s in coverage" tc.name
      | Some c ->
          check_int
            (tc.name ^ " rows match the generated table")
            (Table.cardinality (Protocol.Ctrl_spec.table c.Protocol.spec))
            tc.rows)
    snap;
  Table.iter
    (fun row ->
      match row.(3) with
      | Value.Str _ -> ()
      | v ->
          Alcotest.failf "row did not decode: %s"
            (Format.asprintf "%a" Value.pp v))
    t;
  (* uncovered counts computed by SQL equal the snapshot's bitmap
     arithmetic *)
  let db = Database.add_system Database.empty t in
  let counted =
    Table.fold
      (fun acc row ->
        match (row.(0), row.(1)) with
        | Value.Str name, Value.Int n -> (name, n) :: acc
        | _ -> acc)
      []
      (Sql_exec.query db
         "SELECT table_name, COUNT(*) FROM sys.coverage WHERE NOT covered \
          GROUP BY table_name")
  in
  List.iter
    (fun (tc : Obs.Coverage.table_coverage) ->
      let uncovered = tc.rows - tc.covered in
      let got = Option.value ~default:0 (List.assoc_opt tc.name counted) in
      check_int (tc.name ^ " uncovered via SQL") uncovered got)
    snap

(* ----------------- scheduling determinism of snapshots ---------------- *)

let test_domains_bit_identical () =
  explore_with_coverage ~domains:1 ();
  let t1 = Systables.coverage_of (Obs.Coverage.snapshot ()) in
  explore_with_coverage ~domains:4 ();
  let t4 = Systables.coverage_of (Obs.Coverage.snapshot ()) in
  Obs.Coverage.clear ();
  check_str "sys.coverage identical at 1 and 4 domains" (Table.to_string t1)
    (Table.to_string t4);
  check_str "JSON dump identical too"
    (Obs.Json.to_string (Systables.table_to_json t1))
    (Obs.Json.to_string (Systables.table_to_json t4))

(* ------------------------- sys.spans parents -------------------------- *)

let test_span_parents () =
  Obs.Config.with_enabled (fun () ->
      Obs.Trace.reset ();
      Obs.Trace.with_span "outer" (fun () ->
          Obs.Trace.with_span "mid" (fun () ->
              Obs.Trace.with_span "inner" (fun () -> ()));
          Obs.Trace.with_span "sibling" (fun () -> ()));
      let t = Systables.spans () in
      Obs.Trace.reset ();
      let parent_of name =
        Table.fold
          (fun acc row ->
            if row.(0) = Value.Str name then Some row.(2) else acc)
          None t
      in
      check "outer is a root" true (parent_of "outer" = Some Value.Null);
      check "mid under outer" true (parent_of "mid" = Some (Value.Str "outer"));
      check "inner under mid" true (parent_of "inner" = Some (Value.Str "mid"));
      check "sibling under outer" true
        (parent_of "sibling" = Some (Value.Str "outer")))

(* ------------------- manifest -> sys.runs round trip ------------------ *)

(* Floats are drawn as n/16 so the JSON printer/parser round-trips them
   exactly. *)
let gen_manifest =
  QCheck2.Gen.(
    let name = oneofl [ "mcheck"; "invariants"; "deadlock"; "simulate" ] in
    let q16 = map (fun n -> float_of_int n /. 16.) (int_range 0 4096) in
    let rev = option (oneofl [ "abc123"; "deadbeef" ]) in
    map
      (fun (((cmd, rev), (elapsed, sps)), (covered, rows)) ->
        let pct =
          if rows = 0 then 100.
          else float_of_int covered *. 100. /. float_of_int rows
        in
        ( cmd,
          rev,
          elapsed,
          sps,
          covered,
          rows,
          Obs.Json.Obj
            ([
               ("schema", Obs.Json.Str "asura-run/1");
               ("cmd", Obs.Json.Str cmd);
               ("argv", Obs.Json.List [ Obs.Json.Str "asura"; Obs.Json.Str cmd ]);
               ("date", Obs.Json.Str "2026-08-08T00:00:00Z");
             ]
            @ (match rev with
              | Some r -> [ ("git_rev", Obs.Json.Str r) ]
              | None -> [])
            @ [
                ("elapsed_s", Obs.Json.Float elapsed);
                ( "coverage",
                  Obs.Json.Obj
                    [
                      ("covered", Obs.Json.Int covered);
                      ("rows", Obs.Json.Int rows);
                      ("percent", Obs.Json.Float pct);
                    ] );
                ( "metrics",
                  Obs.Json.Obj
                    [
                      ( "mcheck",
                        Obs.Json.Obj
                          [
                            ( "gauges",
                              Obs.Json.Obj
                                [
                                  ( "states_per_sec",
                                    Obs.Json.Obj
                                      [
                                        ("value", Obs.Json.Float sps);
                                        ("max", Obs.Json.Float sps);
                                      ] );
                                ] );
                          ] );
                    ] );
              ]) ))
      (pair
         (pair (pair name rev) (pair q16 q16))
         (pair (int_range 0 64) (int_range 64 128))))

let prop_manifest_roundtrip =
  QCheck2.Test.make ~count:50 ~name:"manifest -> sys.runs -> JSON round trip"
    gen_manifest
    (fun (cmd, rev, elapsed, sps, covered, rows, doc) ->
      (* the manifest itself must survive print/parse *)
      let doc = Obs.Json.parse_exn (Obs.Json.to_string doc) in
      let t = attached [ ("m.json", doc) ] "sys.runs" in
      let cell col = Table.cell t (Table.get t 0) col in
      Table.cardinality t = 1
      && cell "file" = Value.Str "m.json"
      && cell "cmd" = Value.Str cmd
      && cell "argv" = Value.Str ("asura " ^ cmd)
      && cell "git_rev"
         = (match rev with Some r -> Value.Str r | None -> Value.Null)
      && cell "elapsed_s" = Value.Float elapsed
      && cell "covered" = Value.Int covered
      && cell "rows" = Value.Int rows
      && cell "states_per_sec" = Value.Float sps
      &&
      (* and the whole table survives the JSON dump *)
      let j =
        Obs.Json.parse_exn
          (Obs.Json.to_string (Systables.table_to_json t))
      in
      match Option.bind (Obs.Json.member "rows" j) Obs.Json.to_list with
      | Some [ Obs.Json.List cells ] ->
          List.mem (Obs.Json.Str cmd) cells
          && List.mem (Obs.Json.Float elapsed) cells
      | _ -> false)

(* ------------------------------ sys.bench ----------------------------- *)

(* An older snapshot: its "representation" member names no sys.bench
   family, so its row is ignored. *)
let bench_doc =
  Obs.Json.parse_exn
    {|{"schema":"asura-bench/3","date":"2026-08-08",
       "pairs":[{"name":"gen","seq_ns":100.0,"par_ns":50.0,"domains":4,"speedup":2.0},
                {"name":"dead","seq_ns":100.0,"par_ns":200.0,"domains":4,"speedup":0.5}],
       "representation":[{"name":"scan","columnar_ns":10.0,"listrep_ns":40.0,"speedup":4.0}]}|}

let test_bench_regressions () =
  let t = attached [ ("b.json", bench_doc) ] "sys.bench" in
  check_int "two bench rows: the pairs, not the representation member" 2
    (Table.cardinality t);
  let db = Database.add_system Database.empty t in
  let reg =
    Sql_exec.query db
      "SELECT name, speedup FROM sys.bench WHERE regression ORDER BY speedup"
  in
  check_int "one regression" 1 (Table.cardinality reg);
  check "the sub-1.0 pair" true
    (Table.cell reg (Table.get reg 0) "name" = Value.Str "dead")

(* ---------------- live tables = the live manifest's tables ------------- *)

(* The live sys.* tables are attach_docs over this process's manifest, so
   writing that manifest out and reading it back must give the same
   tables: every one but sys.spans (the trace buffer, which no manifest
   carries), and sys.runs up to elapsed_s (wall time moves on).
   Telemetry is disarmed before either side is built, so both see the
   same registries. *)
let test_live_is_manifest () =
  Obs.Runlog.configure ~dir:"unused" ~cmd:"test" ~argv:[| "asura"; "test" |];
  Obs.Coverage.clear ();
  Obs.Trace.reset ();
  Fun.protect ~finally:(fun () ->
      Obs.Runlog.reset ();
      Obs.Coverage.clear ();
      Obs.Trace.reset ())
  @@ fun () ->
  Obs.Config.with_enabled (fun () ->
      Obs.Coverage.with_enabled (fun () ->
          ignore (Checker.Invariant.run_all (Protocol.database ()));
          ignore
            (Mcheck.Explore.run ~max_states:2_000
               ~tables:(Mcheck.Semantics.load_tables ()) small_cfg)));
  let live = Systables.attach_live Database.empty in
  let doc =
    Obs.Json.parse_exn (Obs.Json.to_string (Obs.Runlog.manifest ()))
  in
  let read, skipped = Systables.attach_docs [ ("live", doc) ] Database.empty in
  check_int "the manifest is accepted" 0 (List.length skipped);
  let names =
    List.filter (fun n -> n <> "sys.spans" && Database.mem live n)
      Systables.table_names
  in
  check_int "every table but sys.spans is attached live"
    (List.length Systables.table_names - 1)
    (List.length names);
  let rows db name =
    let t = Database.find db name in
    if name <> "sys.runs" then Table.rows t
    else
      let i = Schema.index (Table.schema t) "elapsed_s" in
      List.map (fun r -> Array.mapi (fun j v -> if j = i then Value.Null else v) r)
        (Table.rows t)
  in
  List.iter
    (fun name ->
      check (name ^ " has the same schema") true
        (Schema.columns (Table.schema (Database.find live name))
        = Schema.columns (Table.schema (Database.find read name)));
      check (name ^ " has the same rows") true
        (compare (rows live name) (rows read name) = 0))
    names;
  (* the comparison is not vacuous: the workload filled every signal *)
  List.iter
    (fun name ->
      check (name ^ " is not empty") true
        (Table.cardinality (Database.find live name) > 0))
    [ "sys.runs"; "sys.span_stats"; "sys.metrics"; "sys.coverage"; "sys.plans";
      "sys.plan_ops" ]

(* ------------------------ declared tables, attached -------------------- *)

(* Every declared table is attached, with its declared columns in order:
   all but sys.spans by attach_docs (even from no documents), and
   sys.spans by attach_live only. *)
let test_declared_tables_attached () =
  let docs = fst (Systables.attach_docs [] Database.empty) in
  let live = Systables.attach_live Database.empty in
  check_int "nine declared tables" 9 (List.length Systables.tables);
  List.iter
    (fun (name, columns) ->
      let columns_in db =
        Schema.columns (Table.schema (Database.find db name))
      in
      if name = "sys.spans" then
        check "sys.spans is not a document table" false (Database.mem docs name)
      else
        Alcotest.(check (list string)) (name ^ " columns from attach_docs")
          columns (columns_in docs);
      Alcotest.(check (list string)) (name ^ " columns from attach_live")
        columns (columns_in live))
    Systables.tables

(* A histogram written through the run manifest keeps its buckets:
   sys.metrics.buckets is the nonzero buckets in bound order, the
   overflow bucket last, and NULL for a counter. *)
let test_histogram_buckets_column () =
  Obs.Report.reset ();
  Fun.protect ~finally:Obs.Report.reset @@ fun () ->
  Obs.Config.with_enabled (fun () ->
      let reg = Obs.Metrics.registry "buckets-test" in
      let h = Obs.Metrics.histogram ~bounds:[| 0.01; 1.; 4. |] reg "h" in
      List.iter (Obs.Metrics.observe h) [ 0.005; 0.5; 0.75; 3.; 100. ];
      Obs.Metrics.incr (Obs.Metrics.counter reg "c"));
  let doc = Obs.Json.parse_exn (Obs.Json.to_string (Obs.Runlog.manifest ())) in
  let db, _ = Systables.attach_docs [ ("m.json", doc) ] Database.empty in
  let t =
    Sql_exec.query db
      "SELECT key, buckets FROM sys.metrics WHERE registry = 'buckets-test' \
       ORDER BY key"
  in
  check "counter has no buckets, histogram has its text" true
    (Table.rows t
    = [ [| Value.Str "c"; Value.Null |];
        [| Value.Str "h"; Value.Str "<=0.01:1 <=1:2 <=4:1 >4:1" |] ])

(* ------------------- the one ingest path never raises ------------------ *)

(* Manifest-shaped documents: a random schema, then members whose keys
   come from the run-manifest, bench and plan vocabulary, nested the way
   those documents nest them, with leaves that include NaN, +-infinity,
   negative counts and values of the wrong type. *)
let children = function
  | "" ->
      [ "cmd"; "argv"; "date"; "git_rev"; "elapsed_s"; "coverage"; "metrics";
        "spans"; "plans"; "events"; "mcheck"; "pairs"; "benchmarks"; "dropped" ]
  | "coverage" -> [ "covered"; "rows"; "percent"; "tables" ]
  | "tables" -> [ "table"; "rows"; "covered"; "percent"; "bitmap" ]
  | "metrics" -> [ "checker"; "mcheck"; "relalg" ]
  | "checker" | "mcheck" | "relalg" ->
      [ "counters"; "gauges"; "histograms"; "engine"; "probabilistic" ]
  | "counters" -> [ "inv.x.checked"; "inv.x.violated"; "inv.y.checked" ]
  | "gauges" | "histograms" -> [ "states_per_sec"; "frontier" ]
  | "states_per_sec" | "frontier" ->
      [ "value"; "max"; "n"; "mean"; "p50"; "p95"; "p99"; "buckets" ]
  | "buckets" -> [ "le"; "gt"; "n" ]
  | "spans" -> [ "span"; "count"; "total_us"; "min_us"; "max_us" ]
  | "plans" ->
      [ "schema"; "plans"; "fingerprint"; "site"; "query"; "est_cost"; "execs";
        "total_ms"; "rows_out"; "ops" ]
  | "ops" ->
      [ "seq"; "op"; "est_rows"; "est_cost"; "actual_rows"; "actual_ms";
        "batches" ]
  | "events" ->
      [ "schema"; "events"; "dropped"; "t_us"; "dom"; "tag"; "a"; "b"; "c";
        "table" ]
  | "pairs" -> [ "name"; "seq_ns"; "par_ns"; "speedup" ]
  | "benchmarks" -> [ "name"; "ns_per_run" ]
  | _ -> []

let gen_leaf =
  QCheck2.Gen.(
    frequency
      [
        ( 3,
          oneofl
            Obs.Json.
              [ Int 0; Int 1; Int 7; Int (-3); Int max_int; Int min_int;
                Float nan; Float infinity; Float neg_infinity; Float (-1.5);
                Float 0.; Float 1e300 ] );
        ( 2,
          oneofl
            Obs.Json.
              [ Str ""; Str "x"; Str "fire"; Str "stop"; Str "steal"; Str "D";
                Str "ff"; Str "00ff" ] );
        (1, oneofl Obs.Json.[ Null; Bool true; Bool false; List []; Obj [] ]);
      ])

(* Mostly the type the readers expect for the key, else any leaf. *)
let gen_typed_leaf key =
  let open QCheck2.Gen in
  let typed =
    match key with
    | "span" | "table" | "name" | "tag" | "site" | "fingerprint" | "query"
    | "op" | "cmd" | "date" | "engine" ->
        oneofl Obs.Json.[ Str "D"; Str "fire"; Str "stop"; Str "steal"; Str "x" ]
    | "bitmap" -> oneofl Obs.Json.[ Str ""; Str "ff"; Str "ff"; Str "00ff" ]
    | "count" | "rows" | "covered" | "seq" | "dom" | "a" | "b" | "c" | "execs"
    | "rows_out" | "n" | "actual_rows" | "batches" | "dropped"
    | "inv.x.checked" | "inv.x.violated" | "inv.y.checked" ->
        map (fun i -> Obs.Json.Int i) (oneofl [ 0; 1; 2; 7; -3; max_int; min_int ])
    | _ ->
        map (fun f -> Obs.Json.Float f)
          (oneofl [ 0.; 2.5; -1.5; 1e300; nan; infinity; neg_infinity ])
  in
  frequency [ (3, typed); (1, gen_leaf) ]

let rec gen_member key depth =
  let open QCheck2.Gen in
  let kids = children key in
  if depth = 0 || kids = [] then gen_typed_leaf key
  else
    (* each known child present with probability 3/4 *)
    let obj =
      map
        (fun fields -> Obs.Json.Obj (List.filter_map Fun.id fields))
        (flatten_l
           (List.map
              (fun k ->
                frequency
                  [ (1, pure None);
                    (3, map (fun v -> Some (k, v)) (gen_member k (depth - 1))) ])
              kids))
    in
    frequency
      [ (1, gen_typed_leaf key); (4, obj);
        (2, map (fun l -> Obs.Json.List l) (list_size (int_range 1 3) obj)) ]

let gen_doc =
  let open QCheck2.Gen in
  let* schema =
    frequency
      [ (6, pure (Obs.Json.Str "asura-run/1"));
        (2, pure (Obs.Json.Str "asura-bench/3"));
        (2, pure (Obs.Json.Str "asura-plans/1"));
        (1, pure (Obs.Json.Str "asura-stats/1")); (1, gen_leaf) ]
  in
  let+ fields = gen_member "" 6 in
  match fields with
  | Obs.Json.Obj fields -> Obs.Json.Obj (("schema", schema) :: fields)
  | other -> other

let prop_ingest_never_raises =
  QCheck2.Test.make ~count:2000
    ~name:"attach_docs, the report and top never raise on any document"
    ~print:(fun docs -> String.concat "\n" (List.map Obs.Json.to_string docs))
    QCheck2.Gen.(list_size (int_range 1 3) gen_doc)
    (fun docs ->
      let docs = List.mapi (fun i d -> (Printf.sprintf "d%d.json" i, d)) docs in
      let db, skipped = Systables.attach_docs docs Database.empty in
      let results = Systables.run_report db in
      ignore (Systables.report_markdown ~skipped results);
      ignore (Systables.report_html ~skipped results);
      ignore (Obs.Json.to_string (Systables.report_json ~skipped results));
      List.iter
        (fun (c : Systables.canned) -> ignore (Sql_exec.query db c.sql))
        Systables.canned;
      true)

(* --------------------------- namespace guard -------------------------- *)

let test_sys_prefix_reserved () =
  let t = Table.create ~name:"sys.mine" (Schema.of_list [ "a" ]) in
  check "user add rejected" true
    (try
       ignore (Database.add Database.empty t);
       false
     with Database.Reserved_name _ -> true);
  check "system add allowed" true
    (Database.mem (Database.add_system Database.empty t) "sys.mine");
  check "mentions_sys positive" true
    (Systables.mentions_sys "SELECT * FROM sys.runs");
  check "mentions_sys is word-anchored" false
    (Systables.mentions_sys "SELECT * FROM analysys.runs")

let suite =
  [
    Alcotest.test_case "sys.coverage golden rows" `Quick test_coverage_golden;
    Alcotest.test_case "snapshots domain-count independent" `Quick
      test_domains_bit_identical;
    Alcotest.test_case "sys.spans parent reconstruction" `Quick
      test_span_parents;
    QCheck_alcotest.to_alcotest prop_manifest_roundtrip;
    Alcotest.test_case "sys.bench regressions" `Quick test_bench_regressions;
    Alcotest.test_case "live tables are the live manifest's tables" `Quick
      test_live_is_manifest;
    QCheck_alcotest.to_alcotest prop_ingest_never_raises;
    Alcotest.test_case "sys. prefix reserved" `Quick test_sys_prefix_reserved;
    Alcotest.test_case "declared tables attached in column order" `Quick
      test_declared_tables_attached;
    Alcotest.test_case "sys.metrics buckets from the manifest" `Quick
      test_histogram_buckets_column;
  ]
