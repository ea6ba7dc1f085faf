(** Implementation-level simulation: the ED table's queue gating and the
    dfdback feedback path, exercised dynamically (paper section 5,
    Figure 5).

    The hardware directory of Figure 5 consults two status bits before
    committing to a row: [qstatus] (output queues / busy directory full →
    answer [retry]) and [dqstatus] (directory update queue full → convert
    the response into a [dfdback] request, re-injected through the
    feedback path once the queue drains).  This runner wraps the
    behavioural semantics with exactly that gate, evaluated on the
    {e generated ED table}: every delivery is first classified by its ED
    row, and only a [Proceed] verdict executes the architectural
    behaviour.

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

type gate =
  | Proceed  (** execute the architectural row *)
  | Bounce  (** answered retry because qstatus = Full *)
  | Defer  (** converted to dfdback because dqstatus = Full *)

val make : ?upd_capacity:int -> Mcheck.Mstate.t -> t

val gate : t -> cls:Mcheck.Mstate.sym -> Mcheck.Mstate.msg -> gate
(** Classify a delivery by its ED row under the current queue statuses. *)

val deliver : t -> cls:Mcheck.Mstate.sym -> dst:int -> Mcheck.Mstate.msg -> t
(** Pop-and-process one message through the gate: [Proceed] runs the
    table semantics (consuming an update slot if the row writes the
    directory), [Defer] pushes the message onto the feedback path,
    [Bounce] emits a retry.
    @raise Failure if the architectural row is missing (protocol bug). *)

val drain_update : t -> t
(** The directory-update engine retires one queued update. *)

val replay_feedback : t -> t
(** Re-inject the oldest deferred response as its dfdback request; a
    no-op while the update queue is still full. *)

val run_to_completion : ?max_steps:int -> ?drain_every:int -> t -> t
(** Alternate deliveries (round-robin over the base state's queues),
    drains and replays until quiescent.  [drain_every] (default 1) slows
    the update engine down to one retirement per that many rounds; a
    slower engine forces more responses through the feedback path.
    @raise Failure if the step budget is exhausted. *)

val stats : t -> string
