(** Breadth-first explicit-state exploration with counterexample traces.

    This is the Murphi-style baseline the paper positions itself against:
    exhaustive, able to find deep interleavings, and exponential in the
    number of nodes — experiment E9 sweeps [nodes] and shows the state
    count exploding while the SQL static analysis stays flat. *)

type violation = {
  kind : [ `Coherence | `Stale_data | `Unhandled | `Deadlock ];
  detail : string;
  trace : string list;  (** transition labels from the initial state *)
}

type result = {
  explored : int;  (** distinct states visited *)
  transitions : int;
  max_depth : int;
  elapsed : float;  (** wall-clock seconds (monotonic clock) *)
  violation : violation option;  (** first violation found, if any *)
  complete : bool;  (** false if [max_states] stopped the search *)
  dedup_hits : int;  (** successors already in the visited set *)
  per_depth : (int * int) list;  (** states expanded per BFS depth *)
  max_frontier : int;
      (** peak BFS queue length (approximate in-flight peak for the
          stealing engine) *)
  states : string list option;
      (** sorted visited-set keys, when requested with [keep_states] *)
  engine : string;
      (** which exploration core ran: ["steal"] from {!run}, ["seq"]
          from {!run_reference} *)
  participants : int;
      (** participants the search ran on.  Above one, [max_depth] and
          [per_depth] follow the steal schedule's discovery order, not
          the BFS depth, and the printers say so. *)
  probabilistic : bool;
      (** dedup used hash compaction ([compact_bits]): a fingerprint
          collision may have hidden states, so a clean result is
          high-confidence, not proof *)
}

val states_per_sec : result -> float

val dedup_rate : result -> float
(** Fraction of transitions whose target was already visited. *)

val layout_of_tables : Semantics.tables -> Semantics.config -> Pack.layout
(** The packing layout the stealing engine uses for a model: per-field
    code tables seeded with the full vocabulary of the controller
    tables ({!Semantics.pack_vocab}) plus the protocol constants the
    semantics writes programmatically. *)

val run :
  ?max_states:int ->
  ?symmetry:bool ->
  ?tables:Semantics.tables ->
  ?keep_states:bool ->
  ?compact_bits:int ->
  Semantics.config ->
  result
(** Explicit-state search from the all-invalid initial state.
    [max_states] (default 200_000) bounds the search; [tables] lets
    callers reuse precompiled rule lists across runs.  [symmetry]
    (default false) visits one representative per node-permutation orbit
    ({!Mstate.canonical_key} / {!Pack.canonical}) — same verdicts, far
    fewer states; counterexample traces then describe a representative
    of each orbit rather than the literal interleaving.  [keep_states]
    (default false) returns the sorted visited-set keys in
    {!field-states}, used by the differential test suite to compare
    reachable-state sets; the packed engine reports the same strings by
    unpacking its visited vectors through the boxed key function.

    The search runs the work-stealing packed frontier
    ({!Par.Pool.steal_loop}) at {!Par.Pool.domains}[ ()] participants
    over the bit-packed representation ({!Pack}); [engine] is
    ["steal"].  At one domain that is a single FIFO queue, i.e. the BFS
    order of {!run_reference}.  For complete exact searches the
    reachable set, [explored], [transitions], [dedup_hits], verdicts and
    coverage bitmaps are identical to {!run_reference} at any degree;
    [per_depth] and [max_depth] are too at one domain, and
    schedule-dependent above it, as [max_frontier] always is.  A bounded
    search still expands exactly [max_states] states (atomic tickets)
    but an arbitrary subset.  When the search hits a violation it stops
    and replays through {!run_reference} for a bit-identical verdict and
    trace.

    [compact_bits] (8..62) switches the visited set to N-bit hash
    compaction: memory bounded by the fingerprint table, but the result
    is flagged {!field-probabilistic}, [keep_states] is unavailable, and
    violations are reported without traces (no replay).
    @raise Invalid_argument if [compact_bits] is outside 8..62. *)

val run_reference :
  ?max_states:int ->
  ?symmetry:bool ->
  ?tables:Semantics.tables ->
  ?keep_states:bool ->
  Semantics.config ->
  result
(** The boxed sequential oracle: FIFO BFS with a Marshal-string visited
    set ({!Mstate.key}, or {!Mstate.canonical_key} under [symmetry]) and
    exact parent-pointer counterexample traces; [engine] is ["seq"].
    Arguments as for {!run}.  Production never calls it directly: the
    differential tests compare {!run} against it, the benchmark prices
    the packed representation against it, and {!run} replays a
    violation through it. *)

val pp_result : Format.formatter -> result -> unit
(** The one-line summary; [(schedule-dependent depth)] follows the
    engine name when {!field-participants} is above one. *)

val pp_depth_profile : Format.formatter -> result -> unit
(** ASCII histogram of states expanded per BFS depth, or per discovery
    depth, titled schedule-dependent, above one participant. *)
