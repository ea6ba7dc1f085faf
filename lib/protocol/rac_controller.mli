(** The remote-access-cache controller table RAC, one per quad.

    The RAC caches lines homed in other quads on behalf of the quad's
    nodes.  It is snooped by remote home directories exactly like a node
    cache (VC1 in, VC2 out) and runs a background eviction engine that
    issues [racevict] requests; evictions are triggered by an internal
    capacity event ([inmsgres = evq]), never by response processing, so
    the RAC adds no VC3 → VC0 dependency. *)

val spec : Ctrl_spec.t
