(* Engine telemetry as relational tables: the paper's thesis turned on
   the toolchain itself.  Spans, metrics, coverage bitmaps, run
   manifests and bench snapshots become ordinary columnar Table.t
   values under the reserved sys. namespace, so the same SQL front end
   that audits ASURA audits the checker — including the planner and
   EXPLAIN ANALYZE, which both work on telemetry for free.

   This is its own library (not part of obs) because the ingest side
   needs relalg and protocol, and relalg itself depends on obs — folding
   it into obs would close a dependency cycle. *)

open Relalg
module Json = Obs.Json

let table_names =
  [
    "sys.spans";
    "sys.span_stats";
    "sys.metrics";
    "sys.coverage";
    "sys.runs";
    "sys.bench";
    "sys.plans";
    "sys.plan_ops";
    "sys.events";
  ]

(* A query "mentions" the sys namespace when some identifier-shaped
   token starts with "sys." — the trigger for the CLI to attach this
   process's telemetry before executing.  A false positive (the token in a
   string literal) only costs an unused snapshot. *)
let mentions_sys src =
  let n = String.length src in
  let at_word_start i =
    i = 0
    ||
    match src.[i - 1] with
    | 'a' .. 'z' | 'A' .. 'Z' | '0' .. '9' | '_' | '.' -> false
    | _ -> true
  in
  let rec go i =
    if i + 4 > n then false
    else if
      at_word_start i
      && (src.[i] = 's' || src.[i] = 'S')
      && (src.[i + 1] = 'y' || src.[i + 1] = 'Y')
      && (src.[i + 2] = 's' || src.[i + 2] = 'S')
      && src.[i + 3] = '.'
    then true
    else go (i + 1)
  in
  go 0

(* ------------------------------ sys.spans ----------------------------- *)

(* Trace events arrive in completion order, so a child span always
   precedes its parent in the buffer.  Scanning the buffer in reverse
   therefore visits every span before any of its descendants, and the
   parent of a span at depth d on domain t is simply the depth d-1 span
   most recently seen (in that reverse scan) on the same domain. *)
let span_rows () =
  let events = Array.of_list (Obs.Trace.events ()) in
  let last : (int * int, string) Hashtbl.t = Hashtbl.create 32 in
  let rows = ref [] in
  for i = 0 to Array.length events - 1 do
    match events.(Array.length events - 1 - i) with
    | Obs.Trace.Complete { name; cat; ts_us; dur_us; depth; tid; args = _ } ->
        let parent =
          if depth = 0 then Value.Null
          else
            match Hashtbl.find_opt last (tid, depth - 1) with
            | Some p -> Value.Str p
            | None -> Value.Null
        in
        Hashtbl.replace last (tid, depth) name;
        rows :=
          [|
            Value.Str name;
            Value.Str cat;
            parent;
            Value.Int tid;
            Value.Int depth;
            Value.Float ts_us;
            Value.Float dur_us;
          |]
          :: !rows
    | Obs.Trace.Instant _ | Obs.Trace.Counter _ -> ()
  done;
  (* accumulated from a reverse scan, so !rows is back in buffer order *)
  !rows

let spans_schema =
  Schema.of_list
    [ "name"; "cat"; "parent"; "tid"; "depth"; "start_us"; "dur_us" ]

let spans () = Table.of_rows ~name:"sys.spans" spans_schema (span_rows ())

(* ---------------------------- sys.coverage ---------------------------- *)

(* One row per controller-table row, so uncovered-transition queries are
   plain WHERE NOT covered.  table_rows keeps tables whose row count
   differs between manifests apart under GROUP BY.  The description
   comes from the protocol layer's row decoder and is NULL when the
   bitmap's recorded shape no longer matches the regenerated controller
   (different protocol version). *)
let describe ~table ~rows ~row =
  match Protocol.find table with
  | None -> Value.Null
  | Some c ->
      let spec = c.Protocol.spec in
      let t = Protocol.Ctrl_spec.table spec in
      if Table.cardinality t = rows && row >= 0 && row < rows then
        Value.Str (Protocol.Ctrl_spec.describe_row spec row)
      else Value.Null

let coverage_schema =
  Schema.of_list [ "table_name"; "row"; "covered"; "description"; "table_rows" ]

let coverage_of entries =
  let rows =
    List.concat_map
      (fun (tc : Obs.Coverage.table_coverage) ->
        List.init tc.rows (fun row ->
            [|
              Value.Str tc.name;
              Value.Int row;
              Value.Bool (Obs.Coverage.is_covered tc row);
              describe ~table:tc.name ~rows:tc.rows ~row;
              Value.Int tc.rows;
            |]))
      entries
  in
  Table.of_rows ~name:"sys.coverage" coverage_schema rows

(* ------------------------------ sys.runs ------------------------------ *)

let jstr ?(default = Value.Null) doc k =
  match Option.bind (Json.member k doc) Json.to_str with
  | Some s -> Value.Str s
  | None -> default

let jnum ?(default = Value.Null) doc k =
  match Option.bind (Json.member k doc) Json.to_number with
  | Some f -> Value.Float f
  | None -> default

let path doc keys = List.fold_left (fun d k -> Option.bind d (Json.member k)) (Some doc) keys

let path_num doc keys = Option.bind (path doc keys) Json.to_number

let runs_schema =
  Schema.of_list
    [
      "file";
      "cmd";
      "argv";
      "date";
      "git_rev";
      "elapsed_s";
      "covered";
      "rows";
      "coverage_pct";
      "states_per_sec";
      "engine";
      "probabilistic";
      "events_dropped";
    ]

let run_row (label, doc) =
  let argv =
    match Option.bind (Json.member "argv" doc) Json.to_list with
    | Some parts ->
        Value.Str
          (String.concat " " (List.filter_map Json.to_str parts))
    | None -> Value.Null
  in
  let intv keys =
    match path_num doc keys with
    | Some f -> Value.Int (int_of_float f)
    | None -> Value.Null
  in
  [|
    Value.Str label;
    jstr doc "cmd";
    argv;
    jstr doc "date";
    jstr doc "git_rev";
    jnum doc "elapsed_s";
    intv [ "coverage"; "covered" ];
    intv [ "coverage"; "rows" ];
    (match path_num doc [ "coverage"; "percent" ] with
    | Some f -> Value.Float f
    | None -> Value.Null);
    (match
       path_num doc [ "metrics"; "mcheck"; "gauges"; "states_per_sec"; "value" ]
     with
    | Some f -> Value.Float f
    | None -> Value.Null);
    (* which exploration core a model-checking run used, and whether its
       dedup was hash-compacted (probabilistic coverage): non-mcheck
       manifests leave both NULL *)
    (match Option.bind (path doc [ "mcheck"; "engine" ]) Json.to_str with
    | Some s -> Value.Str s
    | None -> Value.Null);
    (match path doc [ "mcheck"; "probabilistic" ] with
    | Some (Json.Bool b) -> Value.Bool b
    | Some _ | None -> Value.Null);
    Value.Int (Obs.Flightrec.doc_dropped doc);
  |]

let runs docs = Table.of_rows ~name:"sys.runs" runs_schema (List.map run_row docs)

(* --------------------------- sys.span_stats -------------------------- *)

let jint doc k =
  match Json.member k doc with Some (Json.Int i) -> Value.Int i | _ -> Value.Null

let entries member doc =
  match Json.member member doc with Some (Json.List l) -> l | _ -> []

let span_stats_schema =
  Schema.of_list
    [ "file"; "span"; "count"; "total_us"; "mean_us"; "min_us"; "max_us" ]

(* Each manifest's "spans" roll-up, one row per span name.  mean_us is
   derived because the SQL subset has no SUM or division: "slowest
   operators" is then ORDER BY total_us DESC LIMIT n over this table. *)
let span_stat_rows (label, doc) =
  List.filter_map
    (fun e ->
      match
        ( Option.bind (Json.member "span" e) Json.to_str,
          Json.member "count" e,
          Option.bind (Json.member "total_us" e) Json.to_number )
      with
      | Some span, Some (Json.Int count), Some total ->
          Some
            [|
              Value.Str label;
              Value.Str span;
              Value.Int count;
              Value.Float total;
              Value.Float (if count = 0 then 0. else total /. float_of_int count);
              jnum e "min_us";
              jnum e "max_us";
            |]
      | _ -> None)
    (entries "spans" doc)

(* ----------------------------- sys.metrics ---------------------------- *)

let metrics_schema =
  Schema.of_list
    [ "file"; "registry"; "key"; "kind"; "value"; "n"; "max"; "p50"; "p95";
      "p99" ]

(* Each manifest's "metrics" member ({!Obs.Metrics.to_json}), one row per
   instrument.  value is a counter's count, a gauge's last value and a
   histogram's mean; the quantiles are 0 for counters and gauges.  A
   field an older manifest lacks (a gauge's n) is NULL. *)
let metric_rows (label, doc) =
  let zero = Value.Float 0. in
  match Json.member "metrics" doc with
  | Some (Json.Obj registries) ->
      List.concat_map
        (fun (reg, groups) ->
          let section kind name cells =
            match Json.member name groups with
            | Some (Json.Obj instruments) ->
                List.filter_map
                  (fun (key, v) ->
                    Option.map
                      (Array.append
                         [| Value.Str label; Value.Str reg; Value.Str key;
                            Value.Str kind |])
                      (cells v))
                  instruments
            | _ -> []
          in
          let num v k = Option.bind (Json.member k v) Json.to_number in
          section "counter" "counters" (fun v ->
              Option.map
                (fun c ->
                  [| Value.Float c;
                     (match v with Json.Int i -> Value.Int i | _ -> Value.Null);
                     Value.Float c; zero; zero; zero |])
                (Json.to_number v))
          @ section "gauge" "gauges" (fun v ->
                Option.map
                  (fun value ->
                    [| Value.Float value; jint v "n"; jnum v "max"; zero; zero;
                       zero |])
                  (num v "value"))
          @ section "histogram" "histograms" (fun v ->
                Option.map
                  (fun mean ->
                    [| Value.Float mean; jint v "n"; jnum v "max"; jnum v "p50";
                       jnum v "p95"; jnum v "p99" |])
                  (num v "mean")))
        registries
  | _ -> []

(* ------------------------------ sys.bench ----------------------------- *)

let bench_schema =
  Schema.of_list
    [
      "file";
      "date";
      "kind";
      "name";
      "baseline_ns";
      "measured_ns";
      "speedup";
      "regression";
    ]

(* Pairs normalize as baseline = the reference (sequential), measured =
   the contender (parallel), and speedup < 1.0 flags a regression.
   Plain measurements carry only measured_ns.  Per family: the snapshot
   member it lives under, its kind, and its baseline / measured /
   speedup fields.  Members no family names (an older snapshot's
   "representation") are ignored. *)
let bench_families =
  [
    ("pairs", "par", Some "seq_ns", "par_ns", Some "speedup");
    ("benchmarks", "measurement", None, "ns_per_run", None);
  ]

let bench_rows (label, doc) =
  List.concat_map
    (fun (member, kind, baseline, measured, speedup) ->
      List.filter_map
        (fun e ->
          let num k = Option.bind (Json.member k e) Json.to_number in
          let field = function
            | None -> Some Value.Null
            | Some k -> Option.map (fun f -> Value.Float f) (num k)
          in
          let name = Option.bind (Json.member "name" e) Json.to_str in
          match (name, field baseline, num measured, field speedup) with
          | Some name, Some b, Some m, Some sp ->
              Some
                [|
                  Value.Str label; jstr doc "date"; Value.Str kind; Value.Str name;
                  b; Value.Float m; sp;
                  Value.Bool (match sp with Value.Float f -> f < 1.0 | _ -> false);
                |]
          | _ -> None)
        (entries member doc))
    bench_families

let bench docs =
  Table.of_rows ~name:"sys.bench" bench_schema (List.concat_map bench_rows docs)

(* ------------------------- sys.plans / sys.plan_ops ------------------- *)

let plans_schema =
  Schema.of_list
    [ "fingerprint"; "site"; "query"; "est_cost"; "execs"; "total_ms";
      "rows_out"; "misest" ]

(* One row per (site, fingerprint) — the plan observatory's aggregation
   unit.  misest is pre-computed (max per-node estimation error) so the
   acceptance query "worst estimated plans" stays ORDER BY misest DESC
   in the SUM-less SQL subset, exactly like sys.span_stats. *)
let plans_of entries =
  Table.of_rows ~name:"sys.plans" plans_schema
    (List.map
       (fun (e : Obs.Planlog.entry) ->
         [|
           Value.Str e.e_fingerprint;
           Value.Str e.e_site;
           Value.Str e.e_query;
           Value.Float e.e_est_cost;
           Value.Int e.e_execs;
           Value.Float (e.e_total_ns /. 1e6);
           Value.Int e.e_rows_out;
           Value.Float (Obs.Planlog.misest e);
         |])
       entries)

let plan_ops_schema =
  Schema.of_list
    [ "fingerprint"; "site"; "seq"; "op"; "est_rows"; "est_cost";
      "actual_rows"; "actual_ms"; "batches" ]

(* Per-operator detail, joinable back to sys.plans on (fingerprint,
   site); seq is the pre-order position within the plan. *)
let plan_ops_of entries =
  Table.of_rows ~name:"sys.plan_ops" plan_ops_schema
    (List.concat_map
       (fun (e : Obs.Planlog.entry) ->
         Array.to_list
           (Array.map
              (fun (o : Obs.Planlog.op_rec) ->
                [|
                  Value.Str e.e_fingerprint;
                  Value.Str e.e_site;
                  Value.Int o.seq;
                  Value.Str o.o_op;
                  Value.Float o.o_est_rows;
                  Value.Float o.o_est_cost;
                  Value.Int o.o_actual_rows;
                  Value.Float (o.o_actual_ns /. 1e6);
                  Value.Int o.o_batches;
                |])
              e.e_ops))
       entries)

(* ----------------------------- sys.events ----------------------------- *)

(* The flight recorder's ring drain as a relation: one row per surviving
   event, in merge (timestamp) order, with fire events decoded back to
   readable transitions through the same protocol-layer row decoder
   sys.coverage uses. *)
let events_schema =
  Schema.of_list
    [ "seq"; "t_us"; "dom"; "tag"; "a"; "b"; "c"; "table_name"; "detail" ]

let event_detail (e : Obs.Flightrec.doc_event) =
  match e.d_tag, e.d_table with
  | "fire", Some table -> (
      match Protocol.find table with
      | None -> Value.Null
      | Some c ->
          let spec = c.Protocol.spec in
          let t = Protocol.Ctrl_spec.table spec in
          describe ~table ~rows:(Table.cardinality t) ~row:e.d_b)
  | "stop", _ -> Value.Str (Obs.Flightrec.stop_name e.d_a)
  | _ -> Value.Null

let events_of (evs : Obs.Flightrec.doc_event list) =
  Table.of_rows ~name:"sys.events" events_schema
    (List.mapi
       (fun seq (e : Obs.Flightrec.doc_event) ->
         [|
           Value.Int seq;
           Value.Float e.d_t_us;
           Value.Int e.d_dom;
           Value.Str e.d_tag;
           Value.Int e.d_a;
           Value.Int e.d_b;
           Value.Int e.d_c;
           (match e.d_table with Some t -> Value.Str t | None -> Value.Null);
           event_detail e;
         |])
       evs)

(* ------------------------------- attach ------------------------------- *)

let put db t = Database.replace_system db t

(* What a labeled document contributes, by its "schema" field.  A run
   manifest whose coverage entries are malformed is refused like an
   unknown schema. *)
let classify doc =
  match Option.bind (Json.member "schema" doc) Json.to_str with
  | Some "asura-run/1" ->
      Result.map (fun cov -> `Run cov) (Obs.Coverage.of_manifest doc)
  | Some s when String.starts_with ~prefix:"asura-bench/" s -> Ok `Bench
  | Some "asura-plans/1" -> Ok `Plans
  | Some s -> Error (Printf.sprintf "unsupported schema %S" s)
  | None -> Error "document has no \"schema\" field"

(* The one ingest path.  A malformed document is skipped rather than
   failing the batch, so one corrupt manifest in runs/ cannot hide the
   healthy ones. *)
let attach_docs docs db =
  let kept, skipped =
    List.partition_map
      (fun (label, doc) ->
        match classify doc with
        | Ok kind -> Either.Left (kind, (label, doc))
        | Error reason -> Either.Right (label, reason))
      docs
  in
  let run_docs = List.filter_map (function `Run _, d -> Some d | _ -> None) kept in
  let db = put db (runs run_docs) in
  let of_runs name schema rows =
    Table.of_rows ~name schema (List.concat_map rows run_docs)
  in
  let db = put db (of_runs "sys.span_stats" span_stats_schema span_stat_rows) in
  let db = put db (of_runs "sys.metrics" metrics_schema metric_rows) in
  let db =
    put db (bench (List.filter_map (function `Bench, d -> Some d | _ -> None) kept))
  in
  let db =
    put db
      (coverage_of
         (Obs.Coverage.merge
            (List.concat_map (function `Run cov, _ -> cov | _ -> []) kept)))
  in
  let plan_entries =
    Obs.Planlog.aggregate
      (List.filter_map
         (function
           | (`Run _ | `Plans), (_, doc) -> Some (Obs.Planlog.of_json doc)
           | _ -> None)
         kept)
  in
  let db = put db (plans_of plan_entries) in
  let db = put db (plan_ops_of plan_entries) in
  let events = List.concat_map (fun (_, doc) -> Obs.Flightrec.of_json doc) run_docs in
  let db = put db (events_of events) in
  (db, skipped)

(* This process is one more run: its manifest, labeled "live", plus
   sys.spans from the trace buffer — the one signal a manifest does not
   carry, because --trace FILE is its sink. *)
let attach_live db =
  fst (attach_docs [ ("live", Obs.Runlog.manifest ()) ] (put db (spans ())))

(* ---------------------------- canned queries -------------------------- *)

type canned = { key : string; title : string; sql : string }

let canned =
  [
    {
      key = "slowest-operators";
      title = "Slowest operators (by total span time)";
      sql =
        "SELECT span, count, total_us, mean_us, max_us FROM sys.span_stats \
         ORDER BY total_us DESC LIMIT 10";
    };
    {
      key = "hottest-tables";
      title = "Hottest controller tables (covered transitions)";
      sql =
        "SELECT table_name, COUNT(*) FROM sys.coverage WHERE covered GROUP \
         BY table_name ORDER BY count DESC";
    };
    {
      key = "uncovered-by-controller";
      title = "Uncovered transitions per controller";
      sql =
        "SELECT table_name, COUNT(*) FROM sys.coverage WHERE NOT covered \
         GROUP BY table_name ORDER BY count DESC";
    };
    {
      key = "hottest-plans";
      title = "Hottest plans (by total execution time)";
      sql =
        "SELECT fingerprint, site, query, execs, total_ms, rows_out FROM \
         sys.plans ORDER BY total_ms DESC LIMIT 10";
    };
    {
      key = "worst-misest";
      title = "Worst cardinality misestimates (est vs actual)";
      sql =
        "SELECT fingerprint, site, query, misest, est_cost, rows_out FROM \
         sys.plans ORDER BY misest DESC LIMIT 5";
    };
    {
      key = "speedup-regressions";
      title = "Bench speedup regressions (speedup < 1.0)";
      sql =
        "SELECT kind, name, speedup, baseline_ns, measured_ns FROM sys.bench \
         WHERE regression ORDER BY speedup LIMIT 20";
    };
    {
      key = "hottest-rules";
      title = "Hottest rules (by recorded firings)";
      sql =
        "SELECT table_name, b, detail, COUNT(*) FROM sys.events WHERE tag = \
         'fire' GROUP BY table_name, b, detail ORDER BY count DESC LIMIT 10";
    };
    {
      key = "steals-by-domain";
      title = "Work-stealing imbalance (steals per thief domain)";
      sql =
        "SELECT a, COUNT(*) FROM sys.events WHERE tag = 'steal' GROUP BY a \
         ORDER BY count DESC";
    };
    {
      key = "dedup-by-depth";
      title = "Dedup hits vs inserts by depth";
      sql =
        "SELECT a, b, COUNT(*) FROM sys.events WHERE tag = 'dedup' GROUP BY \
         a, b ORDER BY a, b";
    };
  ]

(* ---------------------------- plan workload --------------------------- *)

(* The deterministic workload behind [asura plan snapshot], the golden
   fingerprint tests and the CI plan gate.  A fixed set of SQL and
   programmatic shapes over the generated protocol tables, chosen to
   cover every physical decision the fingerprint witnesses: predicate
   placement, top-k recognition, distinct, group and — through a
   programmatic join of D to its state summary — the hash-join
   build-side choice that ASURA_PLAN_BUILD flips for the
   planted-regression drill.  Running it twice yields identical
   fingerprints, so a clean diff is the expected baseline state. *)
let plan_workload_site = "workload:plans"

let plan_workload_sql =
  [
    "SELECT dirst, dirpv FROM D WHERE dirst = 'MESI' AND NOT dirpv = 'one'";
    "SELECT * FROM D WHERE inmsg = 'readex'";
    "SELECT inmsg, COUNT(*) FROM D GROUP BY inmsg ORDER BY count DESC \
     LIMIT 5";
    "SELECT DISTINCT locmsg FROM D ORDER BY locmsg";
  ]

let run_plan_workload db =
  Obs.Planlog.with_site plan_workload_site @@ fun () ->
  List.iter (fun q -> ignore (Sql_exec.query db q)) plan_workload_sql;
  (* join back a distinct projection, then a two-column group — the
     join's build side is the decision the plan gate drills *)
  match Database.find_opt db "D" with
  | None -> ()
  | Some d ->
      let states = Planner.distinct (Table.project [ "dirst"; "dirpv" ] d) in
      ignore
        (Planner.equi_join
           ~on:[ "dirst", "dirst"; "dirpv", "dirpv" ]
           d states);
      ignore (Planner.group_count ~by:[ "inmsg"; "dirst" ] d)

(* ------------------------------ export ------------------------------- *)

(* Generic table → JSON rows, used by tests (round-tripping sys.runs)
   and by artifact-producing CI steps. *)
let table_to_json t =
  let schema = Table.schema t in
  let cols = Schema.columns schema in
  let cell = function
    | Value.Null -> Json.Null
    | Value.Str s -> Json.Str s
    | Value.Int i -> Json.Int i
    | Value.Bool b -> Json.Bool b
    | Value.Float f -> Json.Float f
  in
  Json.Obj
    [
      ("table", Json.Str (Table.name t));
      ("columns", Json.List (List.map (fun c -> Json.Str c) cols));
      ( "rows",
        Json.List
          (List.map
             (fun row -> Json.List (List.map cell (Array.to_list row)))
             (Table.rows t)) );
    ]

(* ------------------------------- report ------------------------------- *)

(* Every section of `asura report` is one of these queries over the
   manifest-backed tables.  The renderers below only format, pivot and
   total their results, so any section can be rerun verbatim with
   `asura sql --runs`. *)
let report_sections =
  List.map
    (fun (key, title, sql) -> { key; title; sql })
    [
      ( "runs",
        "Runs",
        "SELECT file, cmd, date, git_rev, elapsed_s, events_dropped FROM \
         sys.runs" );
      ( "coverage",
        "Transition coverage",
        "SELECT table_name, table_rows, covered, COUNT(*) FROM sys.coverage \
         GROUP BY table_name, table_rows, covered ORDER BY table_name, \
         table_rows, covered" );
      ( "uncovered",
        "Uncovered transitions",
        "SELECT table_name, table_rows, row, description FROM sys.coverage \
         WHERE NOT covered ORDER BY table_name, table_rows, row" );
      ( "invariants",
        "Invariant hit matrix (checked, then violated if any)",
        "SELECT file, key, value FROM sys.metrics WHERE registry = \
         'checker' AND kind = 'counter'" );
      ( "bench-pairs",
        "Benchmarks (seq vs par)",
        "SELECT file, name, baseline_ns, measured_ns, speedup FROM sys.bench \
         WHERE kind = 'par'" );
      ( "bench-diff",
        "Baseline diff (first vs last bench snapshot)",
        "SELECT file, name, measured_ns FROM sys.bench WHERE kind = \
         'measurement'" );
      ( "plans",
        "Plan observatory",
        "SELECT fingerprint, site, query, execs, total_ms, rows_out, misest \
         FROM sys.plans ORDER BY misest DESC, site, query, fingerprint" );
      ( "events",
        "Flight recorder",
        "SELECT tag, COUNT(*) FROM sys.events GROUP BY tag ORDER BY tag" );
      ( "rules",
        "Hottest rules",
        "SELECT table_name, b, COUNT(*) FROM sys.events WHERE tag = 'fire' \
         GROUP BY table_name, b ORDER BY count DESC, table_name, b" );
      ( "steals",
        "Steals by domain",
        "SELECT a, COUNT(*) FROM sys.events WHERE tag = 'steal' GROUP BY a \
         ORDER BY a" );
      ( "trend",
        "Trend (coverage / throughput per manifest)",
        "SELECT file, date, coverage_pct, states_per_sec FROM sys.runs ORDER \
         BY date, file" );
    ]

let run_report db = List.map (fun c -> (c, Sql_exec.query db c.sql)) report_sections
let section results key = snd (List.find (fun (c, _) -> c.key = key) results)
let text = Value.to_string

let int_of = function
  | Value.Int i -> i
  | Value.Float f -> int_of_float f
  | _ -> 0

let float_of = function
  | Value.Int i -> float_of_int i
  | Value.Float f -> f
  | _ -> 0.

(* Consecutive rows sharing [key], in order: each section's ORDER BY (or
   sys.* input order) makes the groups a renderer needs contiguous. *)
let group_adjacent key rows =
  List.fold_left
    (fun acc r ->
      match acc with
      | (k, rs) :: rest when k = key r -> (k, r :: rs) :: rest
      | _ -> (key r, [ r ]) :: acc)
    [] rows
  |> List.rev_map (fun (k, rs) -> (k, List.rev rs))

let coverage_by_table results =
  List.map
    (fun ((name, rows), rs) ->
      let covered r = if r.(2) = Value.Bool true then int_of r.(3) else 0 in
      (name, rows, List.fold_left (fun n r -> n + covered r) 0 rs))
    (group_adjacent
       (fun r -> (text r.(0), int_of r.(1)))
       (Table.rows (section results "coverage")))

(* A rendered section: plain-text cells, so the Markdown and HTML
   printers share it. *)
type view = {
  heading : string;
  sql : string;
  notes : string list;
  header : string list;
  body : string list list;
}

let bar width pct =
  let filled =
    max 0 (min width (int_of_float (Float.round (pct *. float_of_int width /. 100.))))
  in
  String.concat "" (List.init width (fun i -> if i < filled then "█" else "·"))

let views ~max_uncovered ~skipped results =
  let rows key = Table.rows (section results key) in
  let view ?(notes = []) (heading, sql) header body =
    if body = [] && notes = [] then None
    else Some { heading; sql; notes; header; body }
  in
  let sec key =
    let c = List.find (fun c -> c.key = key) report_sections in
    (c.title, c.sql)
  in
  let capped body more =
    let hidden = List.length body - max_uncovered in
    if hidden <= 0 then body
    else List.filteri (fun i _ -> i < max_uncovered) body @ [ more hidden ]
  in
  let fmt = Printf.sprintf in
  let ms v = fmt "%.3f" (float_of v /. 1e6) in
  let pct covered rows = fmt "%.1f%%" (Obs.Coverage.percent ~covered ~rows) in
  let sum col key = List.fold_left (fun n r -> n + int_of r.(col)) 0 (rows key) in
  let files = List.map (fun r -> text r.(0)) (rows "runs") in
  let coverage = coverage_by_table results in
  let covered, total =
    List.fold_left (fun (c, t) (_, rows, n) -> (c + n, t + rows)) (0, 0) coverage
  in
  (* inv.<id>.checked / inv.<id>.violated counters pivoted to id × run *)
  let matrix = Hashtbl.create 64 in
  List.iter
    (fun r ->
      match String.split_on_char '.' (text r.(1)) with
      | [ "inv"; id; ("checked" | "violated" as what) ] ->
          let key = (id, text r.(0)) in
          let c, v = Option.value ~default:(0, 0) (Hashtbl.find_opt matrix key) in
          Hashtbl.replace matrix key
            (if what = "checked" then (int_of r.(2), v) else (c, int_of r.(2)))
      | _ -> ())
    (rows "invariants");
  let matrix_cell id file =
    match Hashtbl.find_opt matrix (id, file) with
    | Some (c, v) when v > 0 -> fmt "%d ✗%d" c v
    | Some (c, _) -> string_of_int c
    | None -> "0"
  in
  let invariant_ids =
    List.sort_uniq compare (Hashtbl.fold (fun (id, _) _ acc -> id :: acc) matrix [])
  in
  (* first vs last snapshot, per benchmark present in both: the ratio
     the CI baseline gate applies, flagged beyond its 3x *)
  let snapshots = group_adjacent (fun r -> text r.(0)) (rows "bench-diff") in
  let diff =
    match snapshots with
    | (_, first) :: (_ :: _ as rest) ->
        let _, last = List.hd (List.rev rest) in
        let latest = List.map (fun r -> (text r.(1), r.(2))) last in
        List.filter_map
          (fun r ->
            match List.assoc_opt (text r.(1)) latest with
            | Some n when float_of r.(2) > 0. ->
                let ratio = float_of n /. float_of r.(2) in
                let flag = if ratio > 3.0 then " ⚠ slowdown" else "" in
                Some [ text r.(1); ms r.(2); ms n; fmt "%.2fx%s" ratio flag ]
            | _ -> None)
          first
    | _ -> []
  in
  let plans = rows "plans" and events = sum 1 "events" in
  List.filter_map Fun.id
    [
      view ("Skipped inputs", "") [ "file"; "reason" ]
        (List.map (fun (file, reason) -> [ file; reason ]) skipped);
      view (sec "runs")
        [ "manifest"; "cmd"; "date"; "git"; "elapsed" ]
        (List.map
           (fun r ->
             [ text r.(0); text r.(1); text r.(2); text r.(3);
               fmt "%.2fs" (float_of r.(4)) ])
           (rows "runs"));
      view (sec "coverage")
        ~notes:
          (if coverage = [] && files <> [] then
             [ "No coverage recorded (runs without --manifest coverage)." ]
           else [])
        [ "controller table"; "rows"; "covered"; "coverage" ]
        (if coverage = [] then []
         else
           List.map
             (fun (name, rows, n) ->
               [ name; string_of_int rows; string_of_int n; pct n rows ])
             coverage
           @ [ [ "total"; string_of_int total; string_of_int covered;
                 pct covered total ] ]);
      view (sec "uncovered")
        [ "controller table"; "row"; "transition" ]
        (List.concat_map
           (fun ((name, _), rs) ->
             capped
               (List.map (fun r -> [ name; text r.(2); text r.(3) ]) rs)
               (fun hidden -> [ name; "…"; fmt "and %d more" hidden ]))
           (group_adjacent
              (fun r -> (text r.(0), int_of r.(1)))
              (rows "uncovered")));
      view (sec "invariants")
        ("invariant" :: List.map Filename.basename files)
        (List.map (fun id -> id :: List.map (matrix_cell id) files) invariant_ids);
      view (sec "bench-pairs")
        [ "snapshot"; "benchmark"; "seq ms"; "par ms"; "speedup" ]
        (List.map
           (fun r ->
             let sp = float_of r.(4) in
             let flag = if sp < 1.0 then " ⚠ regression" else "" in
             [ text r.(0); text r.(1); ms r.(2); ms r.(3); fmt "%.2fx%s" sp flag ])
           (rows "bench-pairs"));
      view (sec "bench-diff")
        ~notes:
          (List.map
             (fun (file, rs) -> fmt "%s: %d measurements." file (List.length rs))
             snapshots)
        [ "benchmark"; "baseline ms"; "latest ms"; "ratio" ]
        diff;
      view (sec "plans")
        ~notes:
          (if plans = [] then []
           else
             [ fmt "%d distinct plans across %d executions." (List.length plans)
                 (sum 3 "plans") ])
        [ "fingerprint"; "site"; "query"; "execs"; "total ms"; "rows"; "misest" ]
        (capped
           (List.map
              (fun r ->
                [ text r.(0); text r.(1); text r.(2); text r.(3);
                  fmt "%.3f" (float_of r.(4)); text r.(5);
                  fmt "%.2fx" (float_of r.(6)) ])
              plans)
           (fun hidden -> [ fmt "… %d more" hidden; ""; ""; ""; ""; ""; "" ]));
      view (sec "events")
        ~notes:
          (if events = 0 then []
           else
             [ fmt "%d events drained (%d overwritten by ring wrap-around)."
                 events (sum 5 "runs") ])
        [ "event"; "count" ]
        (List.map (fun r -> [ text r.(0); text r.(1) ]) (rows "events"));
      view (sec "rules")
        [ "controller table"; "row"; "firings" ]
        (capped
           (List.map
              (fun r -> [ text r.(0); text r.(1); text r.(2) ])
              (rows "rules"))
           (fun hidden -> [ fmt "… %d more" hidden; ""; "" ]));
      view (sec "steals") [ "domain"; "steals" ]
        (List.map (fun r -> [ text r.(0); text r.(1) ]) (rows "steals"));
      view (sec "trend")
        [ "manifest"; "date"; "coverage"; ""; "states/s" ]
        (List.map
           (fun r ->
             let rate =
               match r.(3) with Value.Float s -> fmt "%.0f" s | _ -> "-"
             in
             match r.(2) with
             | Value.Float f ->
                 [ text r.(0); text r.(1); fmt "%.1f%%" f; bar 20 f; rate ]
             | _ -> [ text r.(0); text r.(1); "-"; ""; rate ])
           (rows "trend"));
    ]

let report_markdown ?(max_uncovered = 10) ~skipped results =
  let buf = Buffer.create 4096 in
  let pr fmt = Printf.ksprintf (Buffer.add_string buf) fmt in
  let esc c = String.concat "\\|" (String.split_on_char '|' c) in
  let row cells = pr "| %s |\n" (String.concat " | " (List.map esc cells)) in
  pr "# asura run report\n";
  List.iter
    (fun v ->
      pr "\n## %s\n\n" v.heading;
      if v.sql <> "" then pr "-- %s\n\n" v.sql;
      List.iter (fun n -> pr "%s\n\n" n) v.notes;
      if v.body <> [] then begin
        row v.header;
        row (List.map (fun _ -> "---") v.header);
        List.iter row v.body
      end)
    (views ~max_uncovered ~skipped results);
  Buffer.contents buf

let report_html ?(max_uncovered = 10) ~skipped results =
  let buf = Buffer.create 4096 in
  let pr fmt = Printf.ksprintf (Buffer.add_string buf) fmt in
  let esc s =
    String.to_seq s
    |> Seq.map (function
         | '<' -> "&lt;" | '>' -> "&gt;" | '&' -> "&amp;" | c -> String.make 1 c)
    |> List.of_seq |> String.concat ""
  in
  let tr tag cells =
    pr "<tr>%s</tr>\n"
      (String.concat ""
         (List.map (fun c -> Printf.sprintf "<%s>%s</%s>" tag (esc c) tag) cells))
  in
  pr
    "<!doctype html>\n<html><head><meta charset=\"utf-8\"><title>asura run \
     report</title>\n<style>body{font-family:sans-serif;margin:2em}\
     table{border-collapse:collapse}td,th{border:1px solid #999;padding:4px \
     8px}</style></head><body>\n<h1>asura run report</h1>\n";
  List.iter
    (fun v ->
      pr "<h2>%s</h2>\n" (esc v.heading);
      if v.sql <> "" then pr "<pre>-- %s</pre>\n" (esc v.sql);
      List.iter (fun n -> pr "<p>%s</p>\n" (esc n)) v.notes;
      if v.body <> [] then begin
        pr "<table>\n";
        tr "th" v.header;
        List.iter (tr "td") v.body;
        pr "</table>\n"
      end)
    (views ~max_uncovered ~skipped results);
  pr "</body></html>\n";
  Buffer.contents buf

let report_json ~skipped results =
  let skip (file, reason) =
    Json.Obj [ ("file", Json.Str file); ("reason", Json.Str reason) ]
  in
  Json.Obj
    [
      ("schema", Json.Str "asura-report/2");
      ("skipped", Json.List (List.map skip skipped));
      ( "sections",
        Json.Obj
          (List.map
             (fun (c, t) -> (c.key, table_to_json (Table.with_name c.key t)))
             results) );
    ]
