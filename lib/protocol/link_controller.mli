(** The inter-quad link controller table LK.

    Forwards every inter-quad protocol message between the quad's router
    ports, cut-through when the link is up and with a CRC-error drop
    otherwise.  The link controller {e is} the transport whose occupancy
    the virtual channels model, so it is excluded from the channel
    dependency analysis ([include_in_deadlock = false] in
    {!Protocol.controllers}); including it would add a spurious self-loop
    on every channel. *)

val spec : Ctrl_spec.t
