(** A dependency-free domain pool for the data-parallel kernels.

    The paper's whole methodology is bulk relational work — cross-product
    pruning and breadth-first reachability — and those kernels split into
    independent pieces.  This module provides two entry points:
    {!map_chunks}, a chunked parallel map over an array whose per-chunk
    results come back in chunk order, so a caller that concatenates them
    gets a result structurally identical to the sequential one; and
    {!steal_loop}, a work-stealing loop for work whose size is unknown up
    front.  Production solver generation ([Relalg.Solver.generate]) runs
    on the first, the model checker's frontier on the second.  The
    reference oracles the production engines are tested against never
    enter the pool.

    Worker domains are spawned lazily on first use and then persist,
    blocked on a condition variable, so a long run pays the spawn cost
    once.  With [domains () <= 1] both entry points run on the calling
    domain: {!map_chunks} applies its function to the whole input once,
    and {!steal_loop} is a single FIFO queue.

    Determinism contract: callers must pass chunk functions that are pure
    (no shared mutable state, no I/O, no observability recording); all
    bookkeeping belongs in the spawning domain, after the join.  Chunk
    results are merged left-to-right in chunk index order.

    Two carve-outs: transition-coverage recording ({!Obs.Coverage.record})
    and flight-recorder events ({!Obs.Flightrec.record}) are legal inside
    workers.  Each domain writes a private shard (a bitmap, a ring), and
    the only projections consumers may treat as deterministic are
    order-free merges — bitmap OR for coverage, per-tag / per-rule counts
    for events.  Anything whose merge is order-sensitive (ordered traces,
    interleavings) remains scheduling-dependent and is reported as such.

    Nested parallel regions are not parallelized: a call made from inside
    a worker runs sequentially, so kernels freely compose without
    deadlocking the pool. *)

val domains : unit -> int
(** Current parallelism degree.  Initialized from the [ASURA_DOMAINS]
    environment variable (default [1]); [--domains N] on the CLI calls
    {!set_domains}. *)

val set_domains : int -> unit
(** Set the parallelism degree (clamped to at least 1). *)

val with_domains : int -> (unit -> 'a) -> 'a
(** Run a thunk under a temporary parallelism degree, restoring the
    previous degree afterwards (exception-safe). *)

val inline_below : unit -> int
(** The small-work threshold (item count) below which {!map_chunks}
    runs inline regardless of {!domains}.  Default [128]. *)

val set_inline_below : int -> unit
(** Set {!inline_below}; [0] disables the fallback, as tests do to make
    small regions fan out.  {!steal_loop} is unaffected. *)

val map_chunks : ?min_chunk:int -> ('a array -> 'b) -> 'a array -> 'b array
(** Split the input into contiguous chunks of at least [min_chunk] items
    (default [1]), at most {!domains}[ ()] of them, apply [f] to each chunk
    (in parallel when there are several), and return the per-chunk results
    in chunk order.  The input is one chunk, [[| f input |]] run in the
    calling domain, at one domain, from inside a pool worker, when it has
    at most [min_chunk] items, or when it is shorter than {!inline_below}:
    for small regions the queue/barrier traffic and extra GC coordination
    of a fan-out cost more than the parallelism recovers.  With telemetry
    on, a region that fans out counts one ["regions"] in the ["par"]
    metrics registry. *)

type 'job ctl = { push : 'job -> unit; stop : unit -> unit }
(** Handle given to {!steal_loop} work functions: [push] enqueues a new
    job on the calling participant's own deque; [stop] requests global
    early termination (best-effort — jobs already mid-execution finish). *)

val steal_loop :
  init:(int -> 'acc) ->
  work:('acc -> 'job ctl -> 'job -> unit) ->
  'job list ->
  'acc array
(** Work-stealing parallel loop: the initial [jobs] are dealt round-robin
    to {!domains}[ ()] participants, each of which repeatedly pops from
    its own deque — newest first — executes [work acc ctl job], and
    steals the {e oldest} job from a random victim when its own deque is
    empty.  Terminates when every pushed job has
    been executed (detected by a global unfinished-job count) or when
    [ctl.stop] is called.  Returns the per-participant accumulators in
    participant order.

    Unlike {!map_chunks}, the execution order — and therefore
    anything order-sensitive a caller folds into its accumulators — is
    {e not} deterministic above one domain; callers needing the
    deterministic-merge contract must only extract order-free results
    (sets, bitmap ORs, sums) from the accumulator array.  At one domain,
    or in a call from a pool worker, the loop degenerates to a single
    FIFO queue on the calling domain, i.e. exact breadth-first order.
    Participants are ordinary pool jobs, so the resident worker domains
    are reused ("spawn" counter in the ["par"] registry counts
    every [Domain.spawn]). *)
