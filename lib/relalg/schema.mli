(** Relation schemas: an ordered sequence of distinct column names.

    Column order matters for printing and for positional row access, but all
    relational operations address columns by name.  Lookups are O(1) via an
    internal index. *)

type t

exception Duplicate_column of string
exception Unknown_column of string

exception Schema_clash of string
(** A join would give its result two columns of this name. *)

exception Incompatible_schemas of string
(** The operands of a set operator are not {!union_compatible}; the
    message names the operator and both column lists. *)

val of_list : string list -> t
(** Build a schema from column names, in order.
    @raise Duplicate_column if a name repeats. *)

val columns : t -> string list
(** Column names in declaration order. *)

val arity : t -> int
val mem : t -> string -> bool

val index : t -> string -> int
(** Position of a column. @raise Unknown_column if absent. *)

val index_opt : t -> string -> int option

val append : t -> string list -> t
(** [append s cols] extends [s] with new columns on the right.
    @raise Duplicate_column on clash with existing columns. *)

val project : t -> string list -> t
(** Sub-schema with the given columns, in the {e given} order.
    @raise Unknown_column if any is absent. *)

val equal : t -> t -> bool
(** Same columns in the same order. *)

val union_compatible : t -> t -> bool
(** Same arity and same column names in the same order (the precondition for
    UNION / EXCEPT / INTERSECT). *)

val check_union_compatible : string -> t -> t -> unit
(** [check_union_compatible op a b] returns when [a] and [b] are
    {!union_compatible}.  @raise Incompatible_schemas naming [op]
    otherwise. *)

val pp : Format.formatter -> t -> unit
