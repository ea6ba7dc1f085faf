(** Cost-based query planning over the vectorized {!Batch} layer.

    The planner annotates an optimized logical {!Plan.t} with cardinality
    estimates — per-column dictionary sizes are exact distinct counts in
    the columnar engine, so selectivity estimation is unusually well
    informed — then picks physical operators: [LIMIT]-over-[ORDER BY]
    as a bounded top-k, equality selections on declared hash indexes as
    index lookups.  Joins are not in the SQL subset: code that joins
    tables calls {!equi_join}, which builds its hash table on the
    smaller side.  Execution streams batches of dictionary codes through
    {!Batch} and records actual per-operator cardinalities, so
    [EXPLAIN --analyze] can show estimated vs. actual rows for every
    operator.

    The row-at-a-time reference engine ({!Oracle}) is for tests only:
    no production caller reaches it, and differential tests compare the
    two. *)

val forced_build_side : unit -> bool option
(** [ASURA_PLAN_BUILD=left|right] overrides {!equi_join}'s build-side
    choice (read dynamically); [Some true] means build-left.  The
    deterministic "planted plan regression" knob the plan gate drills
    with: the structural fingerprint covers the build side, so forcing
    the non-chosen side is exactly what [asura plan diff --strict] must
    catch. *)

val env_invalid : unit -> string option
(** The value of [ASURA_PLAN_BUILD] when it is set to anything but
    [left]/[right] (or [LEFT]/[RIGHT], [l]/[r]) or the empty string
    (unset): {!forced_build_side} ignores such a value, so the CLI
    refuses it (exit 2) instead of running without the drill. *)

type keys = (string * [ `Asc | `Desc ]) list

type op =
  | Scan of string
  | Index_scan of { table : string; column : string; value : Value.t }
      (** hash-index lookup of [column = value] ({!Index.cached}) *)
  | Filter of Expr.t
  | Project of string list
  | Distinct
  | Sort of keys
  | Topk of int * keys  (** first [k] of the stable sort, bounded buffer *)
  | Limit of int
  | Hash_join of { on : (string * string) list; build_left : bool }
      (** recorded by {!equi_join}; {!plan} never produces it *)
  | Union
  | Except
  | Intersect
  | Count
  | Group of string list
  | Nothing of string list  (** provably empty *)

type t = {
  op : op;
  est : float;  (** estimated output rows *)
  cost : float;  (** cumulative cost estimate (abstract row-touches) *)
  mutable actual : int;  (** rows observed by execution; [-1] before *)
  mutable ns : int64;
      (** wall time observed at this node, inclusive of children *)
  mutable batches : int;  (** batches pulled through (streaming nodes) *)
  children : t list;
}

val plan : ?indexes:(string * string) list -> Database.t -> Plan.t -> t
(** Optimize ({!Plan.optimize}), then annotate with estimates and
    physical choices.  [indexes] (default none) declares hash indexes
    as [(table, column)] pairs: a selection over a scan of such a
    table with a [column = literal] conjunct becomes an
    {!op.Index_scan} (estimated at rows / ndv) under a filter of the
    remaining conjuncts.
    @raise Database.Unknown_table for unresolvable scans. *)

val fingerprint : Database.t -> t -> string
(** Structural plan fingerprint (16 hex chars, {!Obs.Planlog.fingerprint}
    over canonical node strings).  Invariant under conjunct reordering
    and column renaming (column references canonicalize to positional
    indices); sensitive to operator shape, hash-join build side,
    pushdown placement and top-k recognition.  Stable across processes,
    so safe to persist in manifests and committed baselines. *)

val execute : Database.t -> t -> Table.t
(** Run the annotated plan through {!Batch}, filling [actual], [ns] and
    [batches] fields.  Every node's [ns] is inclusive of its children,
    and the root's covers the whole execution, a streaming root's drain
    included.  A filter over a materialized input, under at most a
    projection and a limit, runs as one {!Batch.select_table}; each node
    of that fused chain keeps its own [actual] and gets [batches = 1]. *)

type prepared
(** A query's annotated plan, made once and executed many times.  It
    belongs to the table snapshots it was planned against: its
    estimates, and the physical choices made from them, hold while
    every table it scans keeps its {!Table.id}. *)

val prepare : Database.t -> Sql_ast.query -> prepared
(** {!plan} of the query ({!Plan.of_query}). *)

val run_prepared : ?label:string -> Database.t -> prepared -> Table.t
(** Execute a fresh copy of the prepared tree (so runs, concurrent ones
    included, never share [actual]/[ns]/[batches]) and report it to the
    plan observatory ({!Obs.Planlog}) under [label] (default: the query
    pretty-printed).  The fingerprint is computed at the first observed
    run and reused.  The result is named ["<query>"] like the reference
    {!Sql_exec} path. *)

val render : t -> string
(** Indented tree with [est]/[actual]/[cost] per operator ([actual=-]
    before execution). *)

val explain : Database.t -> string -> string
(** Plan a query string and render it unexecuted — the [EXPLAIN] (no
    [--analyze]) view with cost estimates. *)

type report = {
  table : Table.t;
  root : t;
  total_ns : int64;
  fingerprint : string;
}

val analyze : ?indexes:(string * string) list -> Database.t -> string -> report
(** Plan (with [indexes], as in {!plan}), execute, and time a query
    string: [EXPLAIN --analyze] with estimated vs. actual rows per
    operator.  Also records the execution to the plan observatory under
    the query text. *)

val render_report : report -> string
val to_json : report -> Obs.Json.t
(** [asura-explain/2]-schema document: result cardinality, total time,
    fingerprint, the rendered plan, and the operator tree with per-node
    estimated/actual rows, ["misest"], ["actual_ms"] and ["batches"]. *)

(** {2 Programmatic operators}

    Entry points for consumers that build operator chains in code
    (solver, checkers, mapping, bench), all on the vectorized {!Batch}
    layer; {!Oracle} holds the row-at-a-time operators tests compare
    them with. *)

val equi_join : on:(string * string) list -> Table.t -> Table.t -> Table.t
(** The join on [(left col, right col)] pairs, as the reference join:
    all left columns, then the right columns that are not keys, pairs in
    left-major order.  The hash table is built on the smaller input
    (ties: left) unless {!forced_build_side} says otherwise.  Recorded
    as [join [l=r, …]], estimated at |A|·|B| over the larger side's
    distinct key count. *)

val select :
  ?funcs:Expr.funcs -> ?keep:string list -> Expr.t -> Table.t -> Table.t
(** The rows passing the predicate, with only the [keep] columns
    (default: all) — [Project (keep, Filter …)] in one pass that gathers
    exactly the kept columns and rows ({!Batch.select_table}). *)

val exists :
  ?funcs:Expr.funcs -> ?indexes:string list -> Expr.t -> Table.t -> bool
(** [not (Table.is_empty (select e t))], stopping at the first row that
    passes ({!Batch.exists}).  [indexes] (default none) names columns of
    [t] to probe through {!Index.cached}, as in {!plan}: a [column =
    literal] conjunct on one of them reads only the matching rows, and
    the other conjuncts are evaluated on those. *)

val group_count : by:string list -> Table.t -> Table.t
(** The materialized [by @ ["count"]] table (name ["<group>"]), like the
    SQL layer's GROUP BY result. *)

val distinct : Table.t -> Table.t

val union : Table.t -> Table.t -> Table.t
(** {!Batch.union}, recorded as [union] over scans of both inputs.
    @raise Schema.Incompatible_schemas unless union-compatible. *)

val except : Table.t -> Table.t -> Table.t
(** {!Batch.except}, recorded as [except] over scans of both inputs.
    @raise Schema.Incompatible_schemas unless union-compatible. *)
