(** Implementation-level simulation: the ED table's queue gating and the
    dfdback feedback path, exercised dynamically (paper section 5,
    Figure 5).

    The hardware directory of Figure 5 consults two status bits before
    committing to a row: [qstatus] (output queues / busy directory full →
    answer [retry]) and [dqstatus] (directory update queue full → convert
    the response into a [dfdback] request, re-injected through the
    feedback path once the queue drains).  This runner wraps the
    behavioural semantics with exactly that gate, evaluated on the
    {e generated ED table} ({!ed}): every delivery is first classified
    by its ED row, and only a [Proceed] verdict executes the
    architectural behaviour.

    The intended invariant, checked by the tests and experiment E14: a
    run with a tiny update queue defers some responses through dfdback
    but converges to the same final state as an unconstrained run. *)

type t = {
  base : Mcheck.Mstate.t;
  upd_capacity : int;  (** slots in the directory update queue *)
  upd_used : int;  (** slots currently occupied by in-flight updates *)
  feedback : (Mcheck.Mstate.sym * Mcheck.Mstate.msg) list;
      (** deferred responses with their arrival class, FIFO *)
  deferred : int;  (** statistics: deferrals taken *)
  retried : int;  (** statistics: requests bounced on full queues *)
}

val ed : (string * Mapping.Codegen.rule list * Mcheck.Dispatch.t) Lazy.t
(** ["ED"], its rules and their dispatch, compiled on first use (main
    domain): inputs D's binding columns then the [qstatus] and
    [dqstatus] literals, outputs [fdback], [locmsg], [bdirop], [dirwr]. *)

val make : ?upd_capacity:int -> Mcheck.Mstate.t -> t

val drive : t -> t
(** Deliver every in-flight message, the head of the first non-empty
    FIFO each time, through the ED gate with the update engine stalled:
    [Proceed] runs the table semantics (consuming an update slot if the
    row writes the directory), [Defer] pushes the message onto the
    feedback path, [Bounce] emits a retry.  Returns once no message is
    in flight.
    @raise Failure if the architectural row is missing (protocol bug). *)

val quiescent : t -> bool
(** Nothing in flight, busy or pending ({!Mcheck.Mstate.quiescent}),
    nothing deferred on the feedback path and no update queued. *)

val settle : t -> t
(** Rounds of: the update engine retires one update, the oldest
    deferral is replayed (once the update queue has room) and {!drive}
    delivers what that enqueued; until {!quiescent}, or after 101
    rounds.  A run that is not {!quiescent} on return never drained. *)

val stats : t -> string
