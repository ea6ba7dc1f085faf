(** Canned simulation scenarios.

    {!figure4} replays the paper's Figure 4 deadlock dynamically: two
    writeback transactions interleaved with a read-exclusive whose
    response processing needs the directory-to-memory channel, under
    single-slot virtual channels.  Under the faulty assignment (VC4
    shared, the paper's pre-fix design) the system wedges with VC2 and
    VC4 mutually occupied; under the debugged assignment (dedicated
    [mread] path) the same schedule drains. *)

val figure4 : Checker.Vcassign.t -> Runner.result * string list
(** Run the Figure 4 interleaving under the given channel assignment;
    returns the outcome and the transition trace. *)

val figure4_wedged :
  Checker.Vcassign.t -> Runner.result * string list * Mcheck.Mstate.t
(** {!figure4} plus the final state the schedule left behind — under the
    faulty assignment, the wedged configuration itself (VC2 and VC4
    mutually occupied).  The packed-path golden test round-trips this
    state through {!Mcheck.Pack} to pin the witness. *)

val readex_walkthrough : Checker.Vcassign.t -> Runner.result * string list
(** The paper's Figure 2 read-exclusive transaction end to end: a store
    miss against a line shared by two remote nodes. *)

val contention : Checker.Vcassign.t -> Runner.result * string list
(** Two nodes storing to the same line: exercises serialization (retry)
    and the reissue path. *)

val stress :
  ?seed:int ->
  ?rounds:int ->
  ?nodes:int ->
  ?addrs:int ->
  Checker.Vcassign.t ->
  Runner.result * int
(** Randomized soak test: a seeded scheduler interleaves random processor
    operations (loads, stores, evictions) with message deliveries under
    the given channel assignment and uniform capacity 2, then lets the
    system drain.  Returns the outcome and the number of operations
    issued.  Under the debugged assignment every seed must reach
    quiescence — the dynamic complement of the static deadlock-freedom
    verdict. *)
