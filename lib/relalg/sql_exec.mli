(** Executor: runs parsed or textual SQL against a {!Database.t}.

    This is the layer the rest of the system drives: controller-table
    checks (section 4), implementation-table generation (section 5) and
    emptiness-style invariants all go through [query] / [exec] /
    [is_empty]. *)

exception Exec_error of string

val run_query : ?label:string -> Database.t -> Sql_ast.query -> Table.t
(** Evaluate a query AST.  The result table is named ["<query>"] unless
    produced by [CREATE TABLE … AS].  Runs the cost-based {!Planner}
    (vectorized execution).  An unknown table or function raises
    {!Exec_error}.  Planner executions
    are recorded in the plan observatory under [label] (default: the
    pretty-printed query), at site ["sql"] unless a more specific
    {!Obs.Planlog.with_site} label is active. *)

val run_query_reference : Database.t -> Sql_ast.query -> Table.t
(** The oracle the planner is differentially tested against: the
    reference engine ({!Oracle}) over the unoptimized {!Plan.of_query},
    one operator call per plan node, sequential on the calling domain.
    Only tests and the end-to-end benchmark call it.  An unknown
    table raises {!Exec_error}; an unknown function raises
    {!Expr.Unknown_function}.  The result is named ["<query>"]. *)

val run_statement : Database.t -> Sql_ast.statement -> Database.t * Table.t option
(** Evaluate a statement; [CREATE TABLE AS] / [INSERT] / [DROP] return the
    updated database, plain queries also return the result table. *)

val query : Database.t -> string -> Table.t
(** Parse then {!run_query}, preparing each text once.  A process-wide,
    mutex-guarded cache keyed by the SQL text keeps the parsed AST, which
    never depends on the database, and the last {!Planner.prepared} plan,
    tagged with the {!Table.id} of every table the query reads.  While
    the tags match, a call skips the lexer, the parser, {!Plan.of_query}
    and {!Planner.plan}, and executes a fresh copy of the plan; any
    table edit yields a fresh id and so a new plan, and only the parse
    is saved.  The saving therefore needs the same text run again on
    unchanged table snapshots, as when one process reruns the invariant
    suite on one database.  Dispatch is {!run_query}'s.  A text is cached
    only once it has run without error, and the cache is cleared when
    it reaches 256 texts.  Unknown functions raise {!Exec_error}. *)

val exec : Database.t -> string -> Database.t * Table.t option
(** Parse then {!run_statement}. *)

val exec_script : Database.t -> string list -> Database.t
(** Run statements in sequence, threading the database. *)

val is_empty : Database.t -> string -> bool
(** [is_empty db sql]: the paper's [\[Select …\] = empty] invariant check. *)
