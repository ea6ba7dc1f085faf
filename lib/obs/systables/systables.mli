(** Self-hosted telemetry: the engine's own observability surfaces
    (spans, metrics, coverage, plans, flight-recorder events, run
    manifests, bench snapshots) materialized as relational tables under
    the reserved [sys.] namespace, so the SQL front end queries the
    checker the same way it queries a protocol.

    One ingest path: {!attach_docs} flattens labeled JSON documents —
    the run manifests and bench snapshots under a [--runs] directory or
    given to [asura report], whose every section is a query over these
    tables ({!report_sections}).  {!attach_live} is the same call on
    this process's own manifest ({!Obs.Runlog.manifest}, labeled
    ["live"]), plus [sys.spans], which no manifest carries.

    Tables are attached with {!Relalg.Database.replace_system}; user SQL
    cannot create or mutate them ([sys.] is reserved at the catalog). *)

val table_names : string list
(** Every table this module can attach, for [--help] and docs. *)

val mentions_sys : string -> bool
(** Does the SQL text reference a [sys.]-prefixed identifier?  Used by
    the CLI to decide whether to attach telemetry before executing.
    Conservative: a match inside a string literal also returns [true]. *)

(** {1 Trace buffer} *)

val spans : unit -> Relalg.Table.t
(** [sys.spans](name, cat, parent, tid, depth, start_us, dur_us): one
    row per completed span of this process's trace buffer.  [parent] is
    reconstructed from the completion-ordered buffer (child precedes
    parent; the parent of a depth-[d] span is the enclosing depth-[d-1]
    span on the same domain) and is [NULL] for roots. *)

(** {1 Document tables}

    Inputs are labeled documents: [(file name, parsed JSON)].  Besides
    the tables below, {!attach_docs} builds:
    - [sys.span_stats](file, span, count, total_us, mean_us, min_us,
      max_us) from each run manifest's ["spans"] roll-up, so "slowest
      operators" is an [ORDER BY total_us DESC LIMIT n] away in a
      SUM-less SQL subset;
    - [sys.metrics](file, registry, key, kind, value, n, max, p50, p95,
      p99) from each run manifest's ["metrics"] member, one row per
      instrument: [kind] is ["counter"], ["gauge"] or ["histogram"],
      [value] a counter's count, a gauge's last value or a histogram's
      mean, and the quantiles are 0 for non-histograms. *)

val coverage_of : Obs.Coverage.table_coverage list -> Relalg.Table.t
(** [sys.coverage](table_name, row, covered, description, table_rows):
    one row per controller-table row of the given entries (manifest
    bitmaps merged by {!Obs.Coverage.merge}).  [description] decodes the
    row through the protocol layer and is [NULL] when the bitmap's
    recorded shape no longer matches the regenerated controller;
    [table_rows] is the row count the bitmap was recorded against. *)

val runs : (string * Obs.Json.t) list -> Relalg.Table.t
(** [sys.runs](file, cmd, argv, date, git_rev, elapsed_s, covered,
    rows, coverage_pct, states_per_sec, engine, probabilistic,
    events_dropped): one row per [asura-run/1] manifest, with the
    coverage summary, the [mcheck] throughput gauge and the number of
    flight-recorder events lost to ring wrap-around flattened in so
    cross-run trend queries are single-table. *)

val bench : (string * Obs.Json.t) list -> Relalg.Table.t
(** [sys.bench](file, date, kind, name, baseline_ns, measured_ns,
    speedup, regression): seq-vs-par pairs ([kind = "par"]) and plain
    per-benchmark timings ([kind = "measurement"], only [measured_ns]
    set) of every [asura-bench/*] snapshot; [regression] is [speedup <
    1.0].  Other snapshot members are ignored. *)

(** {1 Plan observatory tables} *)

val plans_of : Obs.Planlog.entry list -> Relalg.Table.t
(** [sys.plans](fingerprint, site, query, est_cost, execs, total_ms,
    rows_out, misest): one row per (site, fingerprint) plan record.
    [misest] is pre-computed ({!Obs.Planlog.misest}) so "worst estimated
    plans" is [ORDER BY misest DESC] in the SUM-less SQL subset. *)

val plan_ops_of : Obs.Planlog.entry list -> Relalg.Table.t
(** [sys.plan_ops](fingerprint, site, seq, op, est_rows, est_cost,
    actual_rows, actual_ms, batches): per-operator detail in pre-order,
    joinable back to [sys.plans] on (fingerprint, site). *)

(** {1 Flight recorder table} *)

val events_of : Obs.Flightrec.doc_event list -> Relalg.Table.t
(** [sys.events](seq, t_us, dom, tag, a, b, c, table_name, detail): one
    row per surviving flight-recorder event in timestamp-merge order.
    [t_us] is microseconds relative to the oldest surviving event;
    [table_name] is set for rule firings; [detail] decodes firings back
    to readable transitions through the same protocol-layer decoder
    [sys.coverage] uses, and names the stop reason on [stop] rows. *)

(** {1 Attaching} *)

val classify :
  Obs.Json.t ->
  ( [ `Run of (string * int * Bytes.t) list | `Bench | `Plans ],
    string )
  result
(** What a document is, by its ["schema"] field: a run manifest
    ([asura-run/1], with its coverage entries from
    {!Obs.Coverage.of_manifest}), a bench snapshot ([asura-bench/*]) or
    a plan snapshot ([asura-plans/1]).  [Error] gives the reason a
    document is skipped: a missing or unknown schema — one that no table
    reads, such as a table profile ([asura-stats/1]) or EXPLAIN output
    ([asura-explain/*]) — or a malformed coverage entry. *)

val attach_docs :
  (string * Obs.Json.t) list ->
  Relalg.Database.t ->
  Relalg.Database.t * (string * string) list
(** Attach every table but [sys.spans] from labeled documents:
    [sys.runs], [sys.span_stats], [sys.metrics], [sys.bench],
    [sys.coverage] (bitmaps ORed by {!Obs.Coverage.merge}),
    [sys.plans], [sys.plan_ops] ({!Obs.Planlog.aggregate} over run
    manifests and plan snapshots) and [sys.events] (run manifests'
    recordings, concatenated).  A document {!classify} refuses is
    skipped and returned as a [(label, reason)] warning, in input
    order. *)

val attach_live : Relalg.Database.t -> Relalg.Database.t
(** This process's telemetry: [sys.spans] from the trace buffer, then
    {!attach_docs} over [("live", Obs.Runlog.manifest ())] — so the live
    tables are by construction the tables of the run's own manifest. *)

(** {1 Canned queries} *)

type canned = {
  key : string;  (** CLI name, e.g. ["slowest-operators"] *)
  title : string;
  sql : string;
}

val canned : canned list
(** The [asura top] query library — each entry is plain SQL over the
    [sys.] tables, executed through the ordinary planner. *)

(** {1 Plan workload} *)

val plan_workload_site : string
(** ["workload:plans"] — the site label every workload execution records
    under. *)

val plan_workload_sql : string list
(** The SQL half of the deterministic plan workload. *)

val run_plan_workload : Relalg.Database.t -> unit
(** Execute the deterministic plan workload (SQL shapes plus a
    programmatic distinct, join and group over D) against [db],
    recording every plan under {!plan_workload_site}.  The basis of [asura plan
    snapshot], the golden fingerprint tests and the CI plan gate: two
    runs produce identical fingerprints; flipping a join build side
    (e.g. [ASURA_PLAN_BUILD=right]) changes exactly the join
    fingerprints. *)

(** {1 Export} *)

val table_to_json : Relalg.Table.t -> Obs.Json.t
(** Generic relational → JSON dump ([{table; columns; rows}]), used by
    tests and CI artifacts to round-trip [sys.] snapshots. *)

(** {1 Report}

    [asura report] is {!report_sections} run over {!attach_docs}'s
    tables; the renderers read nothing but those results. *)

val report_sections : canned list
(** The report's sections in print order, each one SQL query over the
    document tables (keys ["runs"], ["coverage"], ["uncovered"],
    ["invariants"], ["bench-pairs"], ["bench-diff"], ["plans"],
    ["events"], ["rules"], ["steals"], ["trend"]). *)

val run_report : Relalg.Database.t -> (canned * Relalg.Table.t) list
(** Execute every section through {!Relalg.Sql_exec}. *)

val section : (canned * Relalg.Table.t) list -> string -> Relalg.Table.t
(** A section's result by key.  @raise Not_found for an unknown key. *)

val coverage_by_table : (canned * Relalg.Table.t) list -> (string * int * int) list
(** The ["coverage"] section pivoted to [(table, rows, covered)] per
    (table, row count), sorted — what the coverage gates read. *)

val report_markdown :
  ?max_uncovered:int ->
  skipped:(string * string) list ->
  (canned * Relalg.Table.t) list ->
  string
(** Every non-empty section under its title with the [-- SQL] it ran.
    [max_uncovered] (default 10) caps the rows listed per table of
    uncovered transitions, and the plan and hottest-rule listings; the
    remainder is counted.  [skipped] inputs are listed first. *)

val report_html :
  ?max_uncovered:int ->
  skipped:(string * string) list ->
  (canned * Relalg.Table.t) list ->
  string
(** The same sections as {!report_markdown}, as HTML tables. *)

val report_json :
  skipped:(string * string) list -> (canned * Relalg.Table.t) list -> Obs.Json.t
(** Schema [asura-report/2]: [skipped] plus ["sections"], one
    {!table_to_json} per section keyed by section key. *)
