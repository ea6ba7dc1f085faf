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

(* ---------------------------- declarations ---------------------------- *)

(* Each sys.* table is declared exactly once: its name, how to list its
   source rows, and its columns in order, each a column name and the
   function computing that cell from one source row.  The schema, the
   row arrays, {!tables} and the attach loop all come from the
   declaration, so a column cannot drift out of step with its cell. *)
type 'src decl =
  | Decl : {
      name : string;
      rows : 'src -> 'row list;
      columns : (string * ('row -> Value.t)) list;
    }
      -> 'src decl

let build (Decl d) src =
  let cells = Array.of_list (List.map snd d.columns) in
  Table.of_rows ~name:d.name
    (Schema.of_list (List.map fst d.columns))
    (List.map (fun r -> Array.map (fun cell -> cell r) cells) (d.rows src))

let declared (Decl d) = (d.name, List.map fst d.columns)

(* What the document tables read: {!attach_docs}'s classified inputs. *)
type docs = {
  runs : (string * Json.t) list;  (* labeled asura-run/1 manifests *)
  benches : (string * Json.t) list;  (* labeled asura-bench/* snapshots *)
  coverage : Obs.Coverage.table_coverage list;  (* bitmaps, merged *)
  plans : Obs.Planlog.entry list;  (* aggregated across documents *)
  events : Obs.Flightrec.doc_event list;  (* the manifests' recordings *)
}

let no_docs = { runs = []; benches = []; coverage = []; plans = []; events = [] }

let path doc keys = List.fold_left (fun d k -> Option.bind d (Json.member k)) (Some doc) keys

let str_at keys doc =
  match Option.bind (path doc keys) Json.to_str with
  | Some s -> Value.Str s
  | None -> Value.Null

let num_at keys doc =
  match Option.bind (path doc keys) Json.to_number with
  | Some f -> Value.Float f
  | None -> Value.Null

let jstr k = str_at [ k ]
let jnum k = num_at [ k ]

let jint k doc =
  match Json.member k doc with Some (Json.Int i) -> Value.Int i | _ -> Value.Null

let entries member doc =
  match Json.member member doc with Some (Json.List l) -> l | _ -> []

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
    | Obs.Trace.Complete s ->
        let parent =
          if s.depth = 0 then Value.Null
          else
            match Hashtbl.find_opt last (s.tid, s.depth - 1) with
            | Some p -> Value.Str p
            | None -> Value.Null
        in
        Hashtbl.replace last (s.tid, s.depth) s.name;
        rows := (parent, s) :: !rows
    | Obs.Trace.Instant _ | Obs.Trace.Counter _ -> ()
  done;
  (* accumulated from a reverse scan, so !rows is back in buffer order *)
  !rows

let spans_table =
  Decl
    {
      name = "sys.spans";
      rows = span_rows;
      columns =
        [
          ("name", fun (_, (s : Obs.Trace.span)) -> Value.Str s.name);
          ("cat", fun (_, s) -> Value.Str s.cat);
          ("parent", fun (parent, _) -> parent);
          ("tid", fun (_, s) -> Value.Int s.tid);
          ("depth", fun (_, s) -> Value.Int s.depth);
          ("start_us", fun (_, s) -> Value.Float s.ts_us);
          ("dur_us", fun (_, s) -> Value.Float s.dur_us);
        ];
    }

let spans () = build spans_table ()

(* --------------------------- sys.span_stats -------------------------- *)

(* Each manifest's "spans" roll-up, one row per span name.  mean_us is
   derived because the SQL subset has no SUM or division: "slowest
   operators" is then ORDER BY total_us DESC LIMIT n over this table. *)
let span_stats_table =
  Decl
    {
      name = "sys.span_stats";
      rows =
        (fun d ->
          List.concat_map
            (fun (label, doc) ->
              List.filter_map
                (fun e ->
                  match (jstr "span" e, jint "count" e, jnum "total_us" e) with
                  | Value.Str _, Value.Int _, Value.Float _ -> Some (label, e)
                  | _ -> None)
                (entries "spans" doc))
            d.runs);
      columns =
        [
          ("file", fun (label, _) -> Value.Str label);
          ("span", fun (_, e) -> jstr "span" e);
          ("count", fun (_, e) -> jint "count" e);
          ("total_us", fun (_, e) -> jnum "total_us" e);
          ( "mean_us",
            fun (_, e) ->
              match (jint "count" e, jnum "total_us" e) with
              | Value.Int 0, _ -> Value.Float 0.
              | Value.Int n, Value.Float total -> Value.Float (total /. float_of_int n)
              | _ -> Value.Null );
          ("min_us", fun (_, e) -> jnum "min_us" e);
          ("max_us", fun (_, e) -> jnum "max_us" e);
        ];
    }

(* ----------------------------- sys.metrics ---------------------------- *)

type metric_row = {
  m_file : string;
  m_registry : string;
  m_key : string;
  m_kind : string;  (* "counter", "gauge" or "histogram" *)
  m_value : float;
  m_json : Json.t;  (* the instrument's member of {!Obs.Metrics.to_json} *)
}

(* Each manifest's "metrics" member ({!Obs.Metrics.to_json}), one row per
   instrument.  value is a counter's count, a gauge's last value and a
   histogram's mean; the quantiles are 0 for counters and gauges.
   buckets is a histogram's nonzero buckets in bound order, as text
   ("<=0.01:24 <=0.04:19 >0.16:1"), and NULL for counters, gauges and
   manifests older than the "buckets" member.  A field an older
   manifest lacks (a gauge's n) is NULL. *)
let metric_rows (label, doc) =
  match Json.member "metrics" doc with
  | Some (Json.Obj registries) ->
      List.concat_map
        (fun (registry, groups) ->
          let section kind member value =
            match Json.member member groups with
            | Some (Json.Obj instruments) ->
                List.filter_map
                  (fun (key, v) ->
                    Option.map
                      (fun m_value ->
                        { m_file = label; m_registry = registry; m_key = key;
                          m_kind = kind; m_value; m_json = v })
                      (value v))
                  instruments
            | _ -> []
          in
          let num k v = Option.bind (Json.member k v) Json.to_number in
          section "counter" "counters" Json.to_number
          @ section "gauge" "gauges" (num "value")
          @ section "histogram" "histograms" (num "mean"))
        registries
  | _ -> []

let bucket_text v =
  let bucket b =
    let at k = Option.bind (Json.member k b) Json.to_number in
    match (at "le", at "gt", Json.member "n" b) with
    | Some le, _, Some (Json.Int n) -> Some (Printf.sprintf "<=%g:%d" le n)
    | None, Some gt, Some (Json.Int n) -> Some (Printf.sprintf ">%g:%d" gt n)
    | _ -> None
  in
  match Json.member "buckets" v with
  | Some (Json.List bs) -> Value.Str (String.concat " " (List.filter_map bucket bs))
  | _ -> Value.Null

let metrics_table =
  let histogram f m = if m.m_kind = "histogram" then f m.m_json else Value.Float 0. in
  Decl
    {
      name = "sys.metrics";
      rows = (fun d -> List.concat_map metric_rows d.runs);
      columns =
        [
          ("file", fun m -> Value.Str m.m_file);
          ("registry", fun m -> Value.Str m.m_registry);
          ("key", fun m -> Value.Str m.m_key);
          ("kind", fun m -> Value.Str m.m_kind);
          ("value", fun m -> Value.Float m.m_value);
          (* a counter's member is its count *)
          ("n", fun m -> match m.m_json with Json.Int i -> Value.Int i | v -> jint "n" v);
          ( "max",
            fun m ->
              if m.m_kind = "counter" then Value.Float m.m_value
              else jnum "max" m.m_json );
          ("p50", histogram (jnum "p50"));
          ("p95", histogram (jnum "p95"));
          ("p99", histogram (jnum "p99"));
          ( "buckets",
            fun m -> if m.m_kind = "histogram" then bucket_text m.m_json else Value.Null );
        ];
    }

(* ---------------------------- sys.coverage ---------------------------- *)

(* One row per controller-table row, so uncovered-transition queries are
   plain WHERE NOT covered.  table_rows keeps tables whose row count
   differs between manifests apart under GROUP BY.  The description
   comes from the protocol layer's row decoder and is NULL when the
   bitmap's recorded shape ([rows], by default the controller's own)
   no longer matches the regenerated controller (different protocol
   version). *)
let describe ?rows ~table ~row () =
  match Protocol.find table with
  | None -> Value.Null
  | Some c ->
      let spec = c.Protocol.spec in
      let n = Table.cardinality (Protocol.Ctrl_spec.table spec) in
      let rows = Option.value rows ~default:n in
      if n = rows && row >= 0 && row < rows then
        Value.Str (Protocol.Ctrl_spec.describe_row spec row)
      else Value.Null

let coverage_table =
  Decl
    {
      name = "sys.coverage";
      rows =
        (fun d ->
          List.concat_map
            (fun (tc : Obs.Coverage.table_coverage) ->
              List.init tc.rows (fun row -> (tc, row)))
            d.coverage);
      columns =
        [
          ("table_name", fun (tc, _) -> Value.Str tc.Obs.Coverage.name);
          ("row", fun (_, row) -> Value.Int row);
          ("covered", fun (tc, row) -> Value.Bool (Obs.Coverage.is_covered tc row));
          ("description", fun (tc, row) -> describe ~table:tc.name ~rows:tc.rows ~row ());
          ("table_rows", fun (tc, _) -> Value.Int tc.rows);
        ];
    }

(* ------------------------------ sys.runs ------------------------------ *)

(* One row per run manifest, with the coverage summary, the mcheck
   throughput gauge and the number of flight-recorder events lost to
   ring wrap-around flattened in, so cross-run trend queries are
   single-table. *)
let runs_table =
  let doc f (_, d) = f d in
  let int_at keys =
    doc (fun d ->
        match num_at keys d with Value.Float f -> Value.Int (int_of_float f) | v -> v)
  in
  Decl
    {
      name = "sys.runs";
      rows = (fun d -> d.runs);
      columns =
        [
          ("file", fun (label, _) -> Value.Str label);
          ("cmd", doc (jstr "cmd"));
          ( "argv",
            doc (fun d ->
                match Option.bind (Json.member "argv" d) Json.to_list with
                | Some parts -> Value.Str (String.concat " " (List.filter_map Json.to_str parts))
                | None -> Value.Null) );
          ("date", doc (jstr "date"));
          ("git_rev", doc (jstr "git_rev"));
          ("elapsed_s", doc (jnum "elapsed_s"));
          ("covered", int_at [ "coverage"; "covered" ]);
          ("rows", int_at [ "coverage"; "rows" ]);
          ("coverage_pct", doc (num_at [ "coverage"; "percent" ]));
          ( "states_per_sec",
            doc (num_at [ "metrics"; "mcheck"; "gauges"; "states_per_sec"; "value" ]) );
          (* which exploration core a model-checking run used, and whether
             its dedup was hash-compacted (probabilistic coverage):
             non-mcheck manifests leave both NULL *)
          ("engine", doc (str_at [ "mcheck"; "engine" ]));
          ( "probabilistic",
            doc (fun d ->
                match path d [ "mcheck"; "probabilistic" ] with
                | Some (Json.Bool b) -> Value.Bool b
                | Some _ | None -> Value.Null) );
          ("events_dropped", doc (fun d -> Value.Int (Obs.Flightrec.doc_dropped d)));
        ];
    }

(* ------------------------------ sys.bench ----------------------------- *)

type bench_row = {
  b_file : string;
  b_date : Value.t;
  b_kind : string;
  b_name : string;
  b_baseline : Value.t;
  b_measured : float;
  b_speedup : Value.t;
}

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
          match
            (Option.bind (Json.member "name" e) Json.to_str, field baseline,
             num measured, field speedup)
          with
          | Some name, Some b, Some m, Some sp ->
              Some
                { b_file = label; b_date = jstr "date" doc; b_kind = kind;
                  b_name = name; b_baseline = b; b_measured = m; b_speedup = sp }
          | _ -> None)
        (entries member doc))
    bench_families

let bench_table =
  Decl
    {
      name = "sys.bench";
      rows = (fun d -> List.concat_map bench_rows d.benches);
      columns =
        [
          ("file", fun b -> Value.Str b.b_file);
          ("date", fun b -> b.b_date);
          ("kind", fun b -> Value.Str b.b_kind);
          ("name", fun b -> Value.Str b.b_name);
          ("baseline_ns", fun b -> b.b_baseline);
          ("measured_ns", fun b -> Value.Float b.b_measured);
          ("speedup", fun b -> b.b_speedup);
          ( "regression",
            fun b ->
              Value.Bool (match b.b_speedup with Value.Float f -> f < 1.0 | _ -> false) );
        ];
    }

(* ------------------------- sys.plans / sys.plan_ops ------------------- *)

(* One row per (site, fingerprint) — the plan observatory's aggregation
   unit.  misest is pre-computed (max per-node estimation error) so the
   acceptance query "worst estimated plans" stays ORDER BY misest DESC
   in the SUM-less SQL subset, exactly like sys.span_stats. *)
let plans_table =
  Decl
    {
      name = "sys.plans";
      rows = (fun d -> d.plans);
      columns =
        [
          ("fingerprint", fun (e : Obs.Planlog.entry) -> Value.Str e.e_fingerprint);
          ("site", fun e -> Value.Str e.e_site);
          ("query", fun e -> Value.Str e.e_query);
          ("est_cost", fun e -> Value.Float e.e_est_cost);
          ("execs", fun e -> Value.Int e.e_execs);
          ("total_ms", fun e -> Value.Float (e.e_total_ns /. 1e6));
          ("rows_out", fun e -> Value.Int e.e_rows_out);
          ("misest", fun e -> Value.Float (Obs.Planlog.misest e));
        ];
    }

(* Per-operator detail, joinable back to sys.plans on (fingerprint,
   site); seq is the pre-order position within the plan. *)
let plan_ops_table =
  Decl
    {
      name = "sys.plan_ops";
      rows =
        (fun d ->
          List.concat_map
            (fun (e : Obs.Planlog.entry) ->
              List.map (fun o -> (e, o)) (Array.to_list e.e_ops))
            d.plans);
      columns =
        [
          ("fingerprint", fun ((e : Obs.Planlog.entry), _) -> Value.Str e.e_fingerprint);
          ("site", fun (e, _) -> Value.Str e.e_site);
          ("seq", fun (_, (o : Obs.Planlog.op_rec)) -> Value.Int o.seq);
          ("op", fun (_, o) -> Value.Str o.o_op);
          ("est_rows", fun (_, o) -> Value.Float o.o_est_rows);
          ("est_cost", fun (_, o) -> Value.Float o.o_est_cost);
          ("actual_rows", fun (_, o) -> Value.Int o.o_actual_rows);
          ("actual_ms", fun (_, o) -> Value.Float (o.o_actual_ns /. 1e6));
          ("batches", fun (_, o) -> Value.Int o.o_batches);
        ];
    }

(* ----------------------------- sys.events ----------------------------- *)

(* The flight recorder's ring drain as a relation: one row per surviving
   event, in merge (timestamp) order, t_us relative to the oldest
   surviving event.  detail decodes fire events back to readable
   transitions through the same protocol-layer row decoder sys.coverage
   uses, and names the reason on stop events. *)
let event_detail (e : Obs.Flightrec.doc_event) =
  match e.d_tag, e.d_table with
  | "fire", Some table -> describe ~table ~row:e.d_b ()
  | "stop", _ -> Value.Str (Obs.Flightrec.stop_name e.d_a)
  | _ -> Value.Null

let events_table =
  Decl
    {
      name = "sys.events";
      rows = (fun d -> List.mapi (fun seq e -> (seq, e)) d.events);
      columns =
        [
          ("seq", fun (seq, _) -> Value.Int seq);
          ("t_us", fun (_, (e : Obs.Flightrec.doc_event)) -> Value.Float e.d_t_us);
          ("dom", fun (_, e) -> Value.Int e.d_dom);
          ("tag", fun (_, e) -> Value.Str e.d_tag);
          ("a", fun (_, e) -> Value.Int e.d_a);
          ("b", fun (_, e) -> Value.Int e.d_b);
          ("c", fun (_, e) -> Value.Int e.d_c);
          ( "table_name",
            fun (_, e) -> match e.d_table with Some t -> Value.Str t | None -> Value.Null );
          ("detail", fun (_, e) -> event_detail e);
        ];
    }

(* ------------------------------- attach ------------------------------- *)

let coverage_of coverage = build coverage_table { no_docs with coverage }
let plans_of plans = build plans_table { no_docs with plans }
let plan_ops_of plans = build plan_ops_table { no_docs with plans }
let events_of events = build events_table { no_docs with events }

(* Every table {!attach_docs} builds, in attach order. *)
let doc_tables =
  [ span_stats_table; metrics_table; coverage_table; runs_table; bench_table;
    plans_table; plan_ops_table; events_table ]

let tables = declared spans_table :: List.map declared doc_tables
let table_names = List.map fst tables
let put db t = Database.replace_system db t
let attach decls src db = List.fold_left (fun db d -> put db (build d src)) db decls

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
  let runs = List.filter_map (function `Run _, d -> Some d | _ -> None) kept in
  let src =
    {
      runs;
      benches = List.filter_map (function `Bench, d -> Some d | _ -> None) kept;
      coverage =
        Obs.Coverage.merge (List.concat_map (function `Run cov, _ -> cov | _ -> []) kept);
      plans =
        Obs.Planlog.aggregate
          (List.filter_map
             (function
               | (`Run _ | `Plans), (_, doc) -> Some (Obs.Planlog.of_json doc)
               | _ -> None)
             kept);
      events = List.concat_map (fun (_, doc) -> Obs.Flightrec.of_json doc) runs;
    }
  in
  (attach doc_tables src db, skipped)

(* This process is one more run: its manifest, labeled "live", plus
   sys.spans from the trace buffer — the one signal a manifest does not
   carry, because --trace FILE is its sink. *)
let attach_live db =
  fst (attach_docs [ ("live", Obs.Runlog.manifest ()) ] (put db (spans ())))

(* --stats reads the two collectors it prints straight into their
   declared tables.  It does not go through attach_live: at exit that
   would spawn git for the manifest's git_rev and drain the
   flight-recorder rings. *)
let stats_db () =
  let doc =
    Json.Obj
      [ ("metrics", Obs.Metrics.to_json ()); ("spans", Obs.Trace.stats_to_json ()) ]
  in
  attach
    [ span_stats_table; metrics_table ]
    { no_docs with runs = [ ("live", doc) ] }
    Database.empty

(* ---------------------------- canned queries -------------------------- *)

type group = Top | Events | Plan | Stats | Report
type canned = { key : string; group : group; title : string; sql : string }

let canned =
  List.map
    (fun (key, group, title, sql) -> { key; group; title; sql })
    [
      ( "slowest-operators", Top,
        "Slowest operators (by total span time)",
        "SELECT span, count, total_us, mean_us, max_us FROM sys.span_stats \
         ORDER BY total_us DESC LIMIT 10" );
      ( "hottest-tables", Top,
        "Hottest controller tables (covered transitions)",
        "SELECT table_name, COUNT(*) FROM sys.coverage WHERE covered GROUP \
         BY table_name ORDER BY count DESC" );
      ( "uncovered-by-controller", Top,
        "Uncovered transitions per controller",
        "SELECT table_name, COUNT(*) FROM sys.coverage WHERE NOT covered \
         GROUP BY table_name ORDER BY count DESC" );
      ( "hottest-plans", Plan,
        "Hottest plans (by total execution time)",
        "SELECT fingerprint, site, query, execs, total_ms, rows_out FROM \
         sys.plans ORDER BY total_ms DESC LIMIT 10" );
      ( "worst-misest", Plan,
        "Worst cardinality misestimates (est vs actual)",
        "SELECT fingerprint, site, query, misest, est_cost, rows_out FROM \
         sys.plans ORDER BY misest DESC LIMIT 5" );
      ( "speedup-regressions", Top,
        "Bench speedup regressions (speedup < 1.0)",
        "SELECT kind, name, speedup, baseline_ns, measured_ns FROM sys.bench \
         WHERE regression ORDER BY speedup LIMIT 20" );
      ( "hottest-rules", Events,
        "Hottest rules (by recorded firings)",
        "SELECT table_name, b, detail, COUNT(*) FROM sys.events WHERE tag = \
         'fire' GROUP BY table_name, b, detail ORDER BY count DESC LIMIT 10" );
      ( "steals-by-domain", Events,
        "Work-stealing imbalance (steals per thief domain)",
        "SELECT a, COUNT(*) FROM sys.events WHERE tag = 'steal' GROUP BY a \
         ORDER BY count DESC" );
      ( "dedup-by-depth", Events,
        "Dedup hits vs inserts by depth",
        "SELECT a, b, COUNT(*) FROM sys.events WHERE tag = 'dedup' GROUP BY \
         a, b ORDER BY a, b" );
      ( "stats-spans", Stats,
        "Spans (by total time)",
        "SELECT span, count, total_us, mean_us, min_us, max_us FROM \
         sys.span_stats ORDER BY total_us DESC" );
      ( "stats-metrics", Stats,
        "Metrics (by registry and key)",
        "SELECT registry, key, kind, value, n, max, p50, p95, p99, buckets \
         FROM sys.metrics ORDER BY registry, key" );
      (* Every section of `asura report` is one of these queries over the
         manifest-backed tables.  The renderers below only format, pivot
         and total their results, so any section can be rerun verbatim
         with `asura sql --runs`. *)
      ( "runs", Report,
        "Runs",
        "SELECT file, cmd, date, git_rev, elapsed_s, events_dropped FROM \
         sys.runs" );
      ( "coverage", Report,
        "Transition coverage",
        "SELECT table_name, table_rows, covered, COUNT(*) FROM sys.coverage \
         GROUP BY table_name, table_rows, covered ORDER BY table_name, \
         table_rows, covered" );
      ( "uncovered", Report,
        "Uncovered transitions",
        "SELECT table_name, table_rows, row, description FROM sys.coverage \
         WHERE NOT covered ORDER BY table_name, table_rows, row" );
      ( "invariants", Report,
        "Invariant hit matrix (checked, then violated if any)",
        "SELECT file, key, value FROM sys.metrics WHERE registry = \
         'checker' AND kind = 'counter'" );
      ( "bench-pairs", Report,
        "Benchmarks (seq vs par)",
        "SELECT file, name, baseline_ns, measured_ns, speedup FROM sys.bench \
         WHERE kind = 'par'" );
      ( "bench-diff", Report,
        "Baseline diff (first vs last bench snapshot)",
        "SELECT file, name, measured_ns FROM sys.bench WHERE kind = \
         'measurement'" );
      ( "plans", Report,
        "Plan observatory",
        "SELECT fingerprint, site, query, execs, total_ms, rows_out, misest \
         FROM sys.plans ORDER BY misest DESC, site, query, fingerprint" );
      ( "events", Report,
        "Flight recorder",
        "SELECT tag, COUNT(*) FROM sys.events GROUP BY tag ORDER BY tag" );
      ( "rules", Report,
        "Hottest rules",
        "SELECT table_name, b, COUNT(*) FROM sys.events WHERE tag = 'fire' \
         GROUP BY table_name, b ORDER BY count DESC, table_name, b" );
      ( "steals", Report,
        "Steals by domain",
        "SELECT a, COUNT(*) FROM sys.events WHERE tag = 'steal' GROUP BY a \
         ORDER BY a" );
      ( "trend", Report,
        "Trend (coverage / throughput per manifest)",
        "SELECT file, date, coverage_pct, states_per_sec FROM sys.runs ORDER \
         BY date, file" );
    ]

let canned_in groups = List.filter (fun c -> List.mem c.group groups) canned

(* The one printer of canned queries: each under its title and key, with
   the SQL it ran, then its result table. *)
let render_canned db cs =
  let buf = Buffer.create 1024 in
  List.iter
    (fun c ->
      Printf.bprintf buf "## %s [%s]\n-- %s\n" c.title c.key c.sql;
      Buffer.add_string buf (Table.to_string (Sql_exec.query db c.sql));
      Buffer.add_char buf '\n')
    cs;
  Buffer.contents buf

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

let report_sections = canned_in [ Report ]

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
