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

val tables : (string * string list) list
(** Every [sys.*] table with its columns in order, from the one
    declaration each table has in [systables.ml]: [sys.spans] first
    (attached by {!attach_live} only), then the tables {!attach_docs}
    builds, in attach order. *)

val table_names : string list
(** The names of {!tables}. *)

val mentions_sys : string -> bool
(** Does the SQL text reference a [sys.]-prefixed identifier?  Used by
    the CLI to decide whether to attach telemetry before executing.
    Conservative: a match inside a string literal also returns [true]. *)

(** {1 Tables}

    Each table is declared once in [systables.ml], where its columns
    are documented; {!tables} lists them.  A builder below is one
    declaration applied to one kind of source. *)

val spans : unit -> Relalg.Table.t
(** [sys.spans]: one row per completed span of this process's trace
    buffer, with [parent] reconstructed ([NULL] for roots). *)

val coverage_of : Obs.Coverage.table_coverage list -> Relalg.Table.t
(** [sys.coverage]: one row per controller-table row of these bitmaps. *)

val plans_of : Obs.Planlog.entry list -> Relalg.Table.t
(** [sys.plans]: one row per (site, fingerprint) plan record. *)

val plan_ops_of : Obs.Planlog.entry list -> Relalg.Table.t
(** [sys.plan_ops]: each plan's operators in pre-order. *)

val events_of : Obs.Flightrec.doc_event list -> Relalg.Table.t
(** [sys.events]: one row per flight-recorder event, firings decoded to
    their controller rows. *)

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
    [sys.coverage] ORs the bitmaps ({!Obs.Coverage.merge}),
    [sys.plans] and [sys.plan_ops] aggregate run manifests and plan
    snapshots ({!Obs.Planlog.aggregate}), and [sys.events] concatenates
    the run manifests' recordings.  A document {!classify} refuses is
    skipped and returned as a [(label, reason)] warning, in input
    order. *)

val attach_live : Relalg.Database.t -> Relalg.Database.t
(** This process's telemetry: [sys.spans] from the trace buffer, then
    {!attach_docs} over [("live", Obs.Runlog.manifest ())] — so the live
    tables are by construction the tables of the run's own manifest. *)

val stats_db : unit -> Relalg.Database.t
(** [sys.span_stats] and [sys.metrics] alone, built through their
    declarations from {!Obs.Trace.stats_to_json} and
    {!Obs.Metrics.to_json} (file ["live"]): what [--stats] prints at
    exit.  Unlike {!attach_live} it neither runs [git] nor drains the
    flight recorder. *)

(** {1 Canned queries} *)

type group =
  | Top  (** [asura top] *)
  | Events  (** [asura events top] (and [asura top]) *)
  | Plan  (** [asura plan top] (and [asura top]) *)
  | Stats  (** the [--stats] views *)
  | Report  (** the sections of [asura report] *)

type canned = {
  key : string;  (** CLI name, e.g. ["slowest-operators"] *)
  group : group;
  title : string;
  sql : string;
}

val canned : canned list
(** The query library: each entry is plain SQL over the [sys.] tables,
    executed through the ordinary planner. *)

val canned_in : group list -> canned list
(** The entries of these groups, in {!canned} order. *)

val render_canned : Relalg.Database.t -> canned list -> string
(** Each query under [## title [key]] and its [-- SQL], then its result
    table: the one printer behind [top], [events top], [plan top] and
    [--stats]. *)

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
(** {!canned_in} [[Report]]: the report's sections in print order, each
    one SQL query over the document tables (keys ["runs"],
    ["coverage"], ["uncovered"], ["invariants"], ["bench-pairs"],
    ["bench-diff"], ["plans"], ["events"], ["rules"], ["steals"],
    ["trend"]). *)

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
