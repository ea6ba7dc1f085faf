(** Vectorized physical operators over batches of dictionary codes.

    The row-at-a-time engine in {!Ops} interprets one {!Value} row per
    operator call; this module is the batch-of-codes alternative the
    cost-based planner ({!Planner}) compiles to.  A {!source} streams
    batches as plain [int] code vectors over per-operator column
    buffers, so selection and projection inner loops are tight integer
    loops with no per-row boxing, and the blocking operators
    (join/group/distinct/sort/top-k) key their hash and direct-address
    indexes on combined dictionary codes instead of polymorphic row
    hashing.  Distinct and group do not stream: they read a table
    through a selection vector, like {!select_table}.

    {b Buffer contract.}  Materialization is late, and every filter runs
    on one selection-vector loop and one gather loop:
    - a streaming {!select} allocates one output buffer per column its
      consumer keeps ([?keep]), not per input column, each the input's
      width, before the first pull;
    - {!select_table}, a filter whose input is a table and whose output
      is a table, gathers the kept columns into arrays of exactly the
      result's size (no stream, so no width-sized buffers);
    - {!to_table} and the blocking operators that drain copy the one
      batch a source hands out at exactly its size; an empty stream
      allocates only empty columns;
    - {!exists} stops at the first surviving row and gathers nothing.

    Every operator preserves the reference engine's ordering semantics:
    select/project/limit keep input order, distinct and group are
    first-occurrence, sort is stable under {!Value.order}, and
    {!join_tables} emits pairs in the same (left-major, right ascending)
    order as {!Ops.equi_join} — differentially tested in the suite. *)

type source
(** A pull-based stream of batches.  Each pull refills (or, for borrowed
    scans, reveals) the source's own stable column buffers and returns
    the number of valid rows, so compiled predicates can bind to the
    buffers once, before the first pull. *)

val schema : source -> Schema.t

val of_table : Table.t -> source
(** Borrow the table's code buffers as a single full-cardinality batch —
    no per-batch copy, safe because {!Table.codes} buffers are immutable
    by contract.  Bytes handed out this way are counted by the
    [batch.bytes_borrowed] counter of the ["relalg"] metrics registry
    (vs [batch.bytes_copied] for filter gathers, kept columns times
    gathered rows, and drains), so
    [sys.metrics] shows the scan-copy win. *)

val select :
  ?funcs:Expr.funcs -> ?keep:string list -> Expr.t -> source -> source
(** Filter with a predicate compiled once against the input buffers
    ({!Expr.compile_columns}).  The predicate may read any input column,
    but only the [keep] columns (default: all, in order) are gathered and
    make up the output, in [keep]'s order; surviving rows keep their
    input order.  Each output buffer holds the input's width, so a
    consumer that keeps one column of a 31-column scan pays for one
    buffer, not 31.
    @raise Schema.Unknown_column if [keep] names a missing column. *)

val select_table :
  ?funcs:Expr.funcs ->
  ?where:Expr.t ->
  ?keep:string list ->
  ?limit:int ->
  name:string ->
  Table.t ->
  Table.t * int
(** The same filter over a table whose result is wanted as a table (a
    filter at the root of a plan, or a programmatic selection).  There
    is no stream to feed, so the selection vector covers the whole input
    (every row, in order, with no [where]) and the [keep] columns are
    gathered into arrays of exactly the result's size, sharing the
    input's dictionaries; a zero-row result allocates only empty
    columns.  [limit] keeps the first [n] survivors.  Returns the table
    and the number of rows that passed the predicate (before [limit]). *)

val exists : ?funcs:Expr.funcs -> Expr.t -> source -> bool
(** Whether any row passes the predicate.  Pulls only until the first
    surviving row, and the selection loop stops there too; nothing is
    gathered. *)

val project : string list -> source -> source
(** Zero-copy column selection: aliases the parent's buffers. *)

val limit : int -> source -> source
(** First [n] rows; stops pulling upstream once satisfied. *)

val tap : (int -> unit) -> source -> source
(** Observe the stream: [f] is called with each non-empty batch's row
    count — how the planner records actual per-operator cardinalities
    for [EXPLAIN --analyze] without materializing. *)

val timed : (int64 -> int -> unit) -> source -> source
(** Time the stream: [f ns b] is called after every pull with the wall
    time spent in it (inclusive of upstream pulls) and the pull's result
    ([-1] at end of stream) — how the planner fills per-operator
    [actual_ms]/[batches] for the plan observatory. *)

val count : source -> int
(** Drain, counting rows. *)

val to_table : name:string -> source -> Table.t
(** Drain into a table sharing the source's dictionaries.  A source
    hands out at most one batch, so the code arrays are one exact-size
    copy of it; a source that hands out a second batch raises
    [Invalid_argument]. *)

val distinct_table :
  ?funcs:Expr.funcs ->
  ?where:Expr.t ->
  ?keep:string list ->
  ?limit:int ->
  name:string ->
  Table.t ->
  Table.t * int
(** [SELECT DISTINCT]: the first occurrence of each tuple of the [keep]
    columns among the rows {!select_table} would keep, in order.  The
    dedup runs on that selection vector: key columns are hashed and
    compared in place in the input, the first-occurrence row indices are
    recorded, and each kept column is gathered once at exactly the
    result's size.  The key index is a direct-address array when the
    product of the key dictionaries' sizes is small, otherwise an
    open-addressing table sized from the number of selected rows, so it
    never grows.  Returns the table and the rows that passed [where]. *)

val group_table :
  ?funcs:Expr.funcs ->
  ?where:Expr.t ->
  ?keep:string list ->
  ?limit:int ->
  by:string list ->
  Table.t ->
  Table.t * int
(** [GROUP BY … COUNT] on the same kernel as {!distinct_table}: one row
    per distinct [by] key in first-occurrence order, schema
    [by @ ["count"]], named ["<group>"].  [by] is resolved through
    [keep], as a projection below the group would resolve it.
    @raise Schema.Unknown_column if [by] names a column outside [keep]. *)

val sort_table : name:string -> (string * [ `Asc | `Desc ]) list -> source -> Table.t
(** Stable sort under {!Value.order}, matching {!Ops.order_by}. *)

val topk_table :
  name:string -> int -> (string * [ `Asc | `Desc ]) list -> source -> Table.t
(** First [k] rows of the stable sort, computed with a bounded
    sorted-insertion buffer instead of materializing and sorting the
    whole input — the planner's rewrite of [LIMIT k] over [ORDER BY]. *)

val join_tables :
  ?build_left:bool ->
  on:(string * string) list ->
  Table.t ->
  Table.t ->
  Table.t
(** Hash equi-join keyed on dictionary codes (right-side key codes are
    translated into the left dictionaries, so probe compares are integer
    equality).  Output rows, schema and name match {!Ops.equi_join}
    exactly, whichever side is built: when the left (smaller) side is the
    build side, matches are restored to left-major order by a stable
    counting sort.  [?build_left] overrides the cardinality heuristic
    ({!Planner.equi_join} passes its choice; tests force both sides).

    @raise Ops.Schema_clash on non-key column name collisions. *)
