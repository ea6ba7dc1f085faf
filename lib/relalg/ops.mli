(** Relational-algebra operators over {!Table.t}.

    These are the operations the paper performs through SQL: selection by a
    boolean constraint, renaming, cross product (table generation), union
    (assembling dependency tables), difference, and joins (pairwise
    composition); projection is {!Table.project}.  Set-producing
    operators ([union], [except], [intersect]) return duplicate-free
    tables; [select] preserves multiplicity like its SQL counterpart.

    Every operator runs sequentially on the calling domain: [select] and
    [equi_join] are the oracles the planner's vectorized operators are
    differentially tested against, so they share no code with the
    domain pool. *)

exception Schema_clash of string
(** Raised by {!cross} when operand schemas share a column name. *)

exception Incompatible_schemas of string

val select : ?funcs:Expr.funcs -> Expr.t -> Table.t -> Table.t
(** Keep rows satisfying the predicate. *)

val rename : (string * string) list -> Table.t -> Table.t

val cross : Table.t -> Table.t -> Table.t
(** Cartesian product. @raise Schema_clash on shared column names. *)

val cross_many : name:string -> Table.t list -> Table.t
(** Left-to-right product of several tables (used to build the candidate
    space of a controller table from its column tables). *)

val prefix_columns : string -> Table.t -> Table.t
(** [prefix_columns "t1." t] renames every column [c] to ["t1." ^ c]. *)

val union : Table.t -> Table.t -> Table.t
(** Set union. @raise Incompatible_schemas unless union-compatible. *)

val union_many : name:string -> Schema.t -> Table.t list -> Table.t

val except : Table.t -> Table.t -> Table.t
val intersect : Table.t -> Table.t -> Table.t

val equi_join : on:(string * string) list -> Table.t -> Table.t -> Table.t
(** [equi_join ~on:[(a1, b1); ...] ta tb]: rows of the product where each
    [ta.ai = tb.bi]; the result keeps all columns of [ta] and the columns of
    [tb] that are not join keys.  @raise Schema_clash if a kept [tb] column
    collides with a [ta] column. *)

val add_column :
  name:string -> (Row.t -> Value.t) -> Table.t -> Table.t
(** Extend every row with a computed column appended on the right. *)

val group_count : by:string list -> Table.t -> (Row.t * int) list
(** Multiplicity of each distinct projection onto [by] (used for table
    statistics reported in the benches). *)

val order_by : (string * [ `Asc | `Desc ]) list -> Table.t -> Table.t
(** Stable sort of the rows by the named columns under {!Value.order}
    (so [Int]/[Float] cells order numerically); ties keep input order.
    Backs SQL's [ORDER BY]. *)

val limit : int -> Table.t -> Table.t
(** Keep the first [n] rows in current order.  Backs SQL's [LIMIT]. *)
