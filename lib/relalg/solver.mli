(** Controller-table generation from column tables and column constraints
    (section 3 of the paper).

    A table is described by its {e column tables} (one per column,
    enumerating the legal values, always including [NULL] for protocol
    columns) and one {e column constraint} per column — a boolean
    {!Expr.t} relating that column to the others.  The generated table is
    the set of satisfying assignments of the conjunction of all column
    constraints, i.e. the cross product of the column tables pruned by the
    constraints.

    Two strategies are provided:
    - {!generate_monolithic} materializes the full cross product and filters
      by the whole conjunction — the paper reports ~6 hours for the
      directory table this way;
    - {!generate} adds one column at a time, filtering by each constraint as
      soon as all columns it mentions are bound — the paper reports a few
      minutes.  Both produce the same table; the incremental strategy just
      prunes dead branches early.

    Each call also returns {!stats} (candidate rows materialized and
    constraint evaluations) so the complexity gap can be measured exactly,
    independently of machine speed. *)

type role = Input | Output

type column = {
  cname : string;
  role : role;
  domain : Value.t list;  (** the column table: legal values, in order *)
}

type spec
(** A validated table specification. *)

type column_stats = {
  column : string;
  considered : int;  (** candidate extensions tried while adding the column *)
  kept : int;  (** rows surviving the column's applicable constraints *)
}

type stats = {
  candidates : int;  (** candidate (partial) rows materialized *)
  evaluations : int;  (** constraint evaluations performed *)
  per_column : (string * int) list;
      (** rows surviving after each column is added (incremental) or a
          single entry for the full product (monolithic) *)
  pruning : column_stats list;
      (** per-column candidate/pruned breakdown, in column-addition
          order — the measured shape of the paper's "prune dead branches
          early" argument *)
}

val pruned : column_stats -> int
(** [considered - kept]. *)

exception Invalid_spec of string

val make :
  name:string ->
  columns:column list ->
  constraints:(string * Expr.t) list ->
  spec
(** Build a spec.  Every constrained column must exist; a column without an
    entry in [constraints] is unconstrained ([Expr.True]); constraints may
    mention any columns of the table.
    Also plans the incremental extension {!generate} runs: which
    constraints each column makes ready and how each splits around it.
    @raise Invalid_spec on unknown columns, duplicate columns, or an empty
    domain. *)

val name : spec -> string
val columns : spec -> column list
val inputs : spec -> column list
val outputs : spec -> column list
val constraint_of : spec -> string -> Expr.t
val search_space : spec -> int
(** Product of domain sizes — the size of the unpruned cross product. *)

val generate : ?funcs:Expr.funcs -> spec -> Table.t * stats
(** Incremental (column-at-a-time) generation: inputs first, in declaration
    order, then outputs.  A constraint is applied at the first point all its
    columns are bound.  Runs over columnar code buffers along the extension
    plan {!make} built: each parent-only test is decided once per row (from
    the disjunct ids an earlier step recorded for the row, where the plan
    found them), and a constraint that fixes the new column to a constant or
    a parent column emits that value instead of testing the whole domain.
    @raise Expr.Unknown_function at the step where a constraint calling an
    unresolved function becomes ready, as {!generate_reference} does. *)

val generate_reference : ?funcs:Expr.funcs -> spec -> Table.t * stats
(** The same incremental generation over boxed rows, one [Value] array per
    candidate, sequential on the calling domain — the oracle {!generate} is
    differentially tested against: same rows in the same order, same
    {!stats}. *)

val generate_monolithic : ?funcs:Expr.funcs -> spec -> Table.t * stats
(** Full cross product, then filter by the conjunction of all constraints,
    depth-first and sequential on the calling domain.  Same result as
    {!generate}; exponentially more work. *)
