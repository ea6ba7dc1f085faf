(** The node controller table N, one per node.

    Sits between the protocol network and the node's cache/processor:
    consumes directory responses arriving on the local response channel
    (VC3) and drives the cache interface and the processor result port.

    A deliberate design rule with a deadlock-freedom consequence: on
    [retry] the node controller reports [retrylater] to the processor
    interface and emits {e no} network message — reissue happens from the
    processor side as a fresh transaction.  A naive design that reissues
    the request directly from response processing would create a
    VC3 → VC0 dependency closing a cycle through the whole request path;
    the seeded-bug experiment (E11) adds exactly that scenario and shows
    the SQL deadlock check catching it. *)

val spec : Ctrl_spec.t

val naive_retry_scenario : Ctrl_spec.scenario
(** The buggy "reissue on retry from the response path" scenario used by
    the seeded-bug experiments. *)
