(** The row-at-a-time reference engine: the oracle the planner and its
    {!Batch} operators are differentially tested against.

    Every operator runs sequentially on the calling domain and calls
    nothing in {!Batch} or the domain pool.  [distinct] and the set
    operators work on decoded rows ({!Table.rows}, {!Table.of_rows}), so
    they share no code-space logic with the engine either.  Set-producing
    operators return duplicate-free tables in first-occurrence order;
    [select] keeps multiplicity like its SQL counterpart.

    Production never calls this module: only tests and the end-to-end
    benchmark's reference path ({!Sql_exec.run_query_reference}) do. *)

val execute : Database.t -> Plan.t -> Table.t
(** Evaluate a plan one operator call per node.  With {!Plan.of_query},
    the reference answer to a query. *)

val select : ?funcs:Expr.funcs -> Expr.t -> Table.t -> Table.t
(** Keep the rows satisfying the predicate, in order. *)

val distinct : Table.t -> Table.t
(** Each row at its first occurrence, in fresh dictionaries. *)

val union : Table.t -> Table.t -> Table.t
(** Set union, left rows first.
    @raise Schema.Incompatible_schemas unless union-compatible. *)

val except : Table.t -> Table.t -> Table.t
(** The distinct left rows the right lacks.
    @raise Schema.Incompatible_schemas unless union-compatible. *)

val intersect : Table.t -> Table.t -> Table.t
(** The distinct left rows the right has too.
    @raise Schema.Incompatible_schemas unless union-compatible. *)

val equi_join : on:(string * string) list -> Table.t -> Table.t -> Table.t
(** [equi_join ~on:[(a1, b1); ...] ta tb]: rows of the product where each
    [ta.ai = tb.bi]; the result keeps all columns of [ta] and the columns
    of [tb] that are not join keys, pairs in [ta]-major order with
    matches in [tb] order.
    @raise Schema.Schema_clash if a kept [tb] column collides with a [ta]
    column. *)

val group_count : by:string list -> Table.t -> (Row.t * int) list
(** Multiplicity of each distinct projection onto [by], in
    first-occurrence order. *)

val order_by : (string * [ `Asc | `Desc ]) list -> Table.t -> Table.t
(** Stable sort of the rows by the named columns under {!Value.order}
    (so [Int]/[Float] cells order numerically); ties keep input order. *)

val limit : int -> Table.t -> Table.t
(** Keep the first [n] rows in current order. *)
