(** The cache (snoop) controller table C, one per node.

    Answers the directory's snoop requests against the node's MESI line
    state and serves the node controller's internal cache interface.
    Snoop rows are the source of the VC1 → VC2 dependencies in the VCG:
    a snoop arriving on VC1 can only be consumed if its response can be
    queued on VC2.

    Reconstruction conventions: [sinv] is only ever sent to clean sharers
    (the directory flushes dirty owners with [sflush]), so [sinv] against
    [M] has no row; a snoop finding [I] means the line was silently
    evicted (E-state replacement) and answers [idone] (for sinv) or
    [snack] (data-expecting snoops). *)

val spec : Ctrl_spec.t
