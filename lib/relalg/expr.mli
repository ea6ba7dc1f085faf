(** The paper's column-constraint language.

    Constraints are boolean expressions built from column names, literals
    and sets of literals with [=], [<>], [IN], [AND], [OR], [NOT], and the
    ternary form [condition ? true-expr : false-expr] (section 3 of the
    paper).  The same expression type doubles as the WHERE-clause predicate
    of the SQL front end; there it may additionally call registered boolean
    functions such as [isrequest(inmsg)] (section 4.3). *)

type operand =
  | Col of string  (** reference to a column of the row under test *)
  | Const of Value.t  (** literal *)

type cmp = Lt | Le | Gt | Ge

type t =
  | True
  | False
  | Eq of operand * operand
  | Neq of operand * operand
  | Cmp of cmp * operand * operand
      (** ordered comparison under {!Value.order} (numeric across
          Int/Float) — the [speedup < 1.0] shape of telemetry queries *)
  | In of operand * Value.t list
  | Fn of string * operand
      (** [Fn (f, x)]: application of a registered boolean function, e.g.
          [isrequest(inmsg)] *)
  | And of t * t
  | Or of t * t
  | Not of t
  | Ternary of t * t * t  (** [cond ? then_ : else_] *)

val cmp_holds : cmp -> int -> bool
(** [cmp_holds op n] interprets a comparator result [n] (as returned by
    {!Value.order}) under [op]. *)

val cmp_to_string : cmp -> string

type funcs = string -> (Value.t -> bool) option
(** Resolver for registered boolean functions used by {!eval}. *)

exception Unknown_function of string

val no_funcs : funcs
(** Resolver that knows no functions. *)

(** {1 Smart constructors} *)

val col : string -> operand
val s : string -> operand
(** [s x] is [Const (Str x)]. *)

val eq : string -> string -> t
(** [eq c v] is [Eq (Col c, Const (Str v))] — the overwhelmingly common
    atom in protocol constraints. *)

val eq_null : string -> t
val neq : string -> string -> t
val isin : string -> string list -> t
val conj : t list -> t
val disj : t list -> t
val ( &&& ) : t -> t -> t
val ( ||| ) : t -> t -> t
val ternary : t -> t -> t -> t
(** [ternary c a b] is [c ? a : b], i.e. [(c AND a) OR (NOT c AND b)]. *)

(** {1 Queries} *)

val free_columns : t -> string list
(** Column names mentioned, without duplicates, in first-mention order. *)

val functions : t -> string list
(** Names of the [Fn] applications, with repeats, in the order {!compile}
    and {!compile_columns} resolve them: the first unresolved one is the
    [Unknown_function] they raise. *)

val eval : ?funcs:funcs -> Schema.t -> Value.t array -> t -> bool
(** Evaluate against a row.  @raise Schema.Unknown_column if the expression
    mentions a column absent from the schema, @raise Unknown_function if a
    [Fn] name is not resolved by [funcs]. *)

val compile : ?funcs:funcs -> Schema.t -> t -> Value.t array -> bool
(** Staged evaluator: column indices and functions are resolved once, so
    the returned closure is cheap to apply to many rows.  Raises the same
    exceptions as {!eval}, but at compile time. *)

val compile_columns :
  ?funcs:funcs ->
  Schema.t ->
  dict:(int -> Dict.t) ->
  codes:(int -> int array) ->
  t ->
  int ->
  bool
(** Dictionary-compiled evaluator over columnar storage.  [dict j] and
    [codes j] give column [j]'s dictionary and code buffer (as in
    {!Table.dict} / {!Table.codes}); the result takes a row index.
    Column offsets, constant codes, [IN] masks and function memo tables
    are resolved once at compile time, so the hot path is integer
    compares on code arrays.  A constant that was never interned in the
    relevant column compiles to (almost) constant-false.  Agrees with
    {!eval} on the decoded row; raises the same exceptions, at compile
    time.  The returned closure is safe to call from {!Par.Pool}
    workers. *)

val pp : Format.formatter -> t -> unit
(** Paper-style rendering using [?:] for ternaries. *)

val to_sql : t -> string
(** SQL-style rendering (ternaries expand to AND/OR form). *)
