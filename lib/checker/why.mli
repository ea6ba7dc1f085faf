(** Explainable verdicts: from a failing check back to the table rows
    that caused it.

    The paper's workflow hands designers a cycle of virtual channels and
    expects them to reconstruct the offending protocol scenario by hand
    (the Figure 4 narrative: a writeback and a read-exclusive
    interleaved over VC2/VC4).  This module automates that
    reconstruction:

    - each dependency entry knows the controller rows it was read off
      ({!Dependency.entry}[.origin]), so every cycle edge can be
      rendered as concrete controller transitions — which message is
      consumed, in which state, and which messages are emitted;
    - an SQL invariant selects from one table
      ([SELECT \[DISTINCT\] cols FROM t WHERE p]), so every violating
      row is explained by its {e witnesses}: the rows of [t] that
      satisfy [p] and equal the row on [cols], recovered from the query
      itself. *)

val deadlock : Deadlock.report -> string
(** A Figure-4-style narrative for each VCG cycle: the channels in
    order; per edge, the witnessing dependencies with the controller
    rows behind them (non-NULL cells only — the transition's input
    message, state fields and output messages); and, per channel on the
    cycle, which controller transitions send into it (the traffic that
    can fill the queue and stall the cycle). *)

val deadlock_dot : Deadlock.report -> string
(** Graphviz export of just the witness subgraph: the channels on some
    cycle, each edge labeled with one witnessing dependency and its
    controller-row origin. *)

val witnesses :
  Relalg.Database.t -> Relalg.Sql_ast.query ->
  (Relalg.Table.t * (Relalg.Row.t -> int list)) option
(** Witness recovery for [SELECT \[DISTINCT\] cols FROM t WHERE p]
    (any [ORDER BY]/[LIMIT]; [*] or a column list): [Some (t, find)],
    where [find row] lists, in ascending order, the indices of the rows
    of [t] that satisfy [p] and equal [row] on [cols].  Every row of
    the query's result has at least one witness.  [None] for any other
    query shape ([COUNT], [GROUP BY], set operators). *)

val invariant : Relalg.Database.t -> Invariant.t -> bool * string
(** Run one invariant ({!Invariant.run}) and explain the outcome:
    [(passed, narrative)].  For a violated SQL invariant of the
    single-table [SELECT] shape, each shown counterexample row is
    printed with its witnesses (at most five, then a count of the
    rest); native checks, which build rows from scratch, and any other
    query shape get a single line saying there are no base rows. *)
