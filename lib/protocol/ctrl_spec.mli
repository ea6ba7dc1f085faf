(** Controller specifications: scenarios, column tables, and the derived
    SQL column constraints (section 3 of the paper).

    A controller is a multi-input/multi-output state machine.  Its
    specification names the input and output columns with their column
    tables (legal values — [NULL] is always added, meaning dont-care on
    inputs and no-op on outputs) and lists {e scenarios}.  A scenario pins
    some input columns to a value or a small set of values (unmentioned
    inputs are dont-care, i.e. [NULL] in the generated rows) and gives the
    outputs (unmentioned outputs are no-op, i.e. [NULL]).

    From the scenarios this module derives exactly the artifacts the paper
    feeds to the database:
    - one {e column constraint} per column — ternary chains of the form
      [cond ? col = v : …] for outputs, prefix-box disjunctions for inputs
      ({!column_constraint} renders them; {!to_solver_spec} hands them to
      the {!Relalg.Solver});
    - the generated controller table — the set of satisfying assignments.

    Scenario order matters the way ternary order matters in the paper: the
    first matching scenario defines the outputs. *)

type input_spec =
  | V of string  (** the column must equal this value *)
  | Among of string list  (** one row per listed value *)

type output_spec =
  | Out of string  (** constant output value *)
  | Copy of string  (** copy the value of the named input column *)

type scenario = {
  label : string;  (** unique id, used in reports and seeded-bug ablations *)
  when_ : (string * input_spec) list;
  emit : (string * output_spec) list;
}

type t

exception Invalid_controller of string

val make :
  name:string ->
  inputs:(string * string list) list ->
  outputs:(string * string list) list ->
  scenarios:scenario list ->
  t
(** Validate and build.  @raise Invalid_controller on: unknown columns in a
    scenario, values outside the column table, duplicate column or scenario
    labels, or a [Copy] from a non-input column. *)

val name : t -> string
val input_columns : t -> string list
val output_columns : t -> string list
val domain : t -> string -> Relalg.Value.t list
(** Column table contents (includes [Null]). @raise Invalid_controller. *)

val scenarios : t -> scenario list

val guard : t -> scenario -> Relalg.Expr.t
(** The scenario's full box over all input columns (unmentioned inputs
    pinned to [NULL]). *)

val column_constraint : t -> string -> Relalg.Expr.t
(** The derived column constraint, in the paper's ternary style for output
    columns; for an input column, the disjunction of scenario boxes
    restricted to the columns bound so far. *)

val to_solver_spec : t -> Relalg.Solver.spec
val generate : t -> Relalg.Table.t * Relalg.Solver.stats
(** Incremental generation (the paper's fast path). *)

val table : t -> Relalg.Table.t
(** Memoized {!generate}. *)

val describe_row : t -> int -> string
(** Row [i] of {!table} as a readable transition:
    ["inmsg=readex dirst=I ... -> locmsg=data ..."] (non-NULL input
    cells, then non-NULL outputs).  Used by [asura report] to decode
    uncovered coverage-bitmap rows.
    @raise Invalid_argument on an out-of-range index. *)

val constraints_listing : t -> string
(** Human-readable dump of every column constraint — the "database input"
    component (ii) of the paper's push-button flow. *)

val with_scenarios : t -> scenario list -> t
(** Re-validated copy with different scenarios (used to seed bugs in the
    ablation experiments). *)

val map_scenario : t -> string -> (scenario -> scenario) -> t
(** Rewrite one scenario by label. @raise Invalid_controller if absent. *)

val drop_scenario : t -> string -> t
(** Remove one scenario by label. @raise Invalid_controller if absent. *)
