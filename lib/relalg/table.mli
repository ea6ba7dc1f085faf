(** Relations: a named schema plus a sequence of rows.

    Tables are immutable values; every operation returns a new table.  Rows
    keep insertion order (useful for printing controller tables in the
    paper's layout) but all set-like operations ({!Ops}) treat a table as a
    set of rows.

    {b Storage.}  Since the columnar refactor a table no longer holds a
    [Row.t list]: rows live column-wise in growable integer arrays, and
    every cell is a code into a per-column {!Dict} (dictionary encoding).
    Appends are O(1) amortized, {!cardinality} is O(1), and the physical
    operators in {!Ops} work directly on the code arrays — equality on the
    hot path is an integer compare.  Derived tables (selections,
    projections, joins) share their parents' dictionaries, and projections
    and renames share the code buffers themselves.  {!rows} still
    materializes the classic row-major view for callers that want it, but
    iteration ({!iter}, {!fold}, {!get}) decodes one row at a time. *)

type t

exception Arity_mismatch of { table : string; expected : int; got : int }

val create : name:string -> Schema.t -> t
(** Empty table. *)

val of_rows : name:string -> Schema.t -> Row.t list -> t
(** Encode a row-major list into fresh columnar storage.
    @raise Arity_mismatch if any row length differs from the schema arity. *)

val name : t -> string
val with_name : string -> t -> t
val schema : t -> Schema.t
val rows : t -> Row.t list
(** Rows in insertion order.  This {e materializes}: every cell is decoded
    through its column dictionary.  Prefer {!iter}/{!fold}/{!get} (or the
    code-level accessors below) on hot paths. *)

val cardinality : t -> int
(** O(1). *)

val arity : t -> int
val is_empty : t -> bool

val id : t -> int
(** A unique identity for this table value's storage version.  Any
    operation that produces a new table — including {!add} — yields a
    fresh id, so caches (e.g. {!Index.cached}) can detect
    that a table registered under the same name has been replaced. *)

val add : t -> Row.t -> t
(** Append one row, O(1) amortized (the columnar buffers are extended in
    place when this table owns their tails, and branch-copied otherwise).
    @raise Arity_mismatch. *)

val add_all : t -> Row.t list -> t
val mem : t -> Row.t -> bool

val cell : t -> Row.t -> string -> Value.t
(** [cell t row col] reads a named field of a row of [t].
    @raise Schema.Unknown_column. *)

val get : t -> int -> Row.t
(** [get t i] decodes row [i] (0-based insertion order). *)

val iter : (Row.t -> unit) -> t -> unit
val fold : ('a -> Row.t -> 'a) -> 'a -> t -> 'a
val iter_column : (Value.t -> unit) -> t -> string -> unit
(** Iterate one column top to bottom without decoding whole rows. *)

val filter : (Row.t -> bool) -> t -> t
val map_rows : (Row.t -> Row.t) -> t -> t
(** Row-wise rewrite preserving the schema.  The result gets fresh
    dictionaries.  @raise Arity_mismatch if the function changes row
    length. *)

val sort : t -> t
(** Rows in {!Row.compare} order. *)

val distinct : t -> t
(** Remove duplicate rows, keeping the first occurrence of each.
    Runs on dictionary codes: no cell is decoded. *)

val equal_as_sets : t -> t -> bool
(** Same schema (column names in order) and same set of rows. *)

val subset : t -> t -> bool
(** [subset a b]: every row of [a] occurs in [b] (schemas must be
    union-compatible).  This is the paper's "resulting table contains the
    original debugged table" check for implementation mappings.  Works by
    translating [a]'s codes into [b]'s dictionary space — a row whose
    value is absent from [b]'s dictionaries cannot be a member. *)

val to_string : t -> string
(** Aligned textual rendering with a header line, as in Figure 3. *)

val pp : Format.formatter -> t -> unit

val row_assoc : t -> Row.t -> (string * Value.t) list
(** A row as (column, value) pairs, in schema order. *)

(** {1 Columnar access}

    The physical layer ({!Ops}, {!Index}, {!Batch}) operates on these.
    The returned arrays are the live backing buffers: only indices
    [0 .. cardinality - 1] are meaningful, and callers must never mutate
    them. *)

val dict : t -> int -> Dict.t
(** The dictionary of column [j] (0-based schema order). *)

val codes : t -> int -> int array
(** The code buffer of column [j]. *)

val filter_idx : (int -> bool) -> t -> t
(** Keep the rows whose index satisfies the predicate, sharing every
    dictionary with the input.  No cell is decoded. *)

val gather : ?name:string -> t -> int list -> t
(** The sub-table made of the given row indices, in the given order,
    sharing dictionaries with the input. *)

val select_columns : ?name:string -> Schema.t -> t -> int list -> t
(** [select_columns schema t js] is the zero-copy view whose [k]-th column
    is column [js_k] of [t] (buffers and dictionaries shared), under the
    given schema.  This is how {!project} and {!Ops.rename} avoid
    touching any row.  [schema]'s arity must equal [List.length js]. *)

val project : string list -> t -> t
(** Keep (and reorder to) the named columns, zero-copy: the result
    shares [t]'s code buffers and dictionaries.  Duplicate rows are
    retained; pair with {!distinct} for SQL's [SELECT DISTINCT].
    @raise Schema.Unknown_column. *)

val row_membership : of_:t -> t -> int -> bool
(** [row_membership ~of_:b a] precomputes a membership test: the returned
    predicate tells whether row [i] of [a] occurs in [b].  Works in code
    space via dictionary translation, like {!subset}.  Schemas must be
    union-compatible (callers check). *)

val concat : t -> t -> t
(** Union-all: the rows of both tables in order, under the first table's
    name and dictionaries ([b]'s codes are re-interned).  Schemas must be
    union-compatible — callers ({!Ops.union}) check. *)

val of_columns :
  name:string -> Schema.t -> nrows:int -> (Dict.t * int array) array -> t
(** Assemble a table directly from per-column (dictionary, codes) pairs —
    the fast path for operators that compute code arrays wholesale
    ({!Ops.cross}, {!Ops.equi_join}).  Every code array must have at least
    [nrows] entries valid against its dictionary. *)

(** {1 Storage accounting} *)

val storage_bytes : t -> int
(** Approximate heap footprint: code buffers plus each column's
    dictionary.  Shared dictionaries are counted once per table. *)

val dict_sizes : t -> (string * int) list
(** Per column, the number of distinct values in its dictionary (in
    schema order).  A shared dictionary may exceed the column's own
    distinct count. *)

val dict_hit_rate : t -> float
(** Aggregate {!Dict.hit_rate} across the table's dictionaries —
    effectively the fraction of interned cells that were repeats. *)
