(** Logical query plans and a rule-based optimizer.

    The paper attributes the speed of its invariant checking to "the many
    query optimization techniques inherent in relational database
    systems"; this module supplies the classical ones that matter for the
    emptiness-check workload: predicate simplification, selection
    merging, pushing selections below projections and through set
    operators, and short-circuiting provably-empty branches.

    This module is the plan algebra only: {!Planner} annotates and runs
    plans on the {!Batch} engine, and the reference engine ({!Oracle})
    evaluates them one operator at a time.  Optimization is
    semantics-preserving: the reference answer to an optimized plan
    equals the unoptimized one (property-tested in the test suite). *)

(** A plan says exactly what the SQL subset ({!Sql_ast}) can say, so
    it has no join: code that joins tables calls {!Planner.equi_join}. *)
type t =
  | Scan of string  (** a named table *)
  | Select of Expr.t * t
  | Project of string list * t
  | Distinct of t
  | Sort of (string * [ `Asc | `Desc ]) list * t
      (** stable sort by columns under {!Value.order} *)
  | Limit of int * t  (** first [n] rows in current order *)
  | Union of t * t
  | Except of t * t
  | Intersect of t * t
  | Count of t  (** row count of the subplan *)
  | Group_count of string list * t  (** one row per key with a count *)
  | Empty of string list  (** a provably-empty relation with this schema *)

val of_query : Sql_ast.query -> t
(** Direct (unoptimized) translation of a parsed query. *)

val optimize : t -> t
(** Apply the rewrite rules to a fixpoint. *)

val simplify_predicate : Expr.t -> Expr.t
(** Constant folding and identity elimination on a predicate:
    [x AND true = x], [not (not p) = p], ['a' = 'b'] folds to [false],
    ternaries with constant conditions collapse, etc. *)

val explain : t -> string
(** Indented tree rendering, EXPLAIN-style. *)
