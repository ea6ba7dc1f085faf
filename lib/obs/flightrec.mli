(** The exploration flight recorder.

    Per-domain fixed-capacity ring buffers of packed integer event
    records: tag, monotonic-delta timestamp, and three payload words —
    five int stores per event, no allocation.  The hot tags mostly skip
    the clock read: [fire] and [dedup] records always reuse their
    ring's last stamp (their state's [expand]) with a zero delta, and
    only one [expand] in 16 reads the clock, so stamps advance in steps
    of at most 16 expansions.  The
    model-checking engines, the visited set and the constraint solver
    record their dynamics here (rule firings, dedup hits, steals,
    visited-set growth, solver column extension), so that a violation,
    a deadlock or an interrupt can be explained from the last
    milliseconds of evidence.  On by default; [ASURA_FLIGHTREC=off]
    disables it (the bench overhead pair uses this).

    Sharded per domain exactly like {!Coverage}: recording is legal
    from inside parallel workers, and {!drain} timestamp-merges the
    rings from a quiescent caller.  Only order-free projections of the
    stream ({!counts_by_tag}, {!fire_counts}) are part of the seq-vs-par
    determinism contract — interleaving and steal events are
    scheduling-dependent by nature. *)

(** {1 Tags}

    Stable small-int tags; payload meaning per tag:
    - [expand]: a=depth, b=frontier / in-flight size when expanded
    - [fire]: a=coverage table id ({!Coverage.register}), b=row, c=depth
    - [dedup]: a=depth, b=1 for a hit (already visited), 0 for an insert
    - [steal]: a=thief participant, b=victim participant
    - [compact]: a=shard, b=new shard capacity (visited-set growth)
    - [solver_gen]: a=rows generated, b=columns bound
    - [solver_extend]: a=candidate rows considered, b=rows kept
    - [violation]: a=violation kind code, b=max depth
    - [deadlock]: a=max depth
    - [stop]: a=stop reason code, b=states explored *)

val tag_expand : int
val tag_fire : int
val tag_dedup : int
val tag_steal : int
val tag_compact : int
val tag_solver_gen : int
val tag_solver_extend : int
val tag_violation : int
val tag_deadlock : int
val tag_stop : int

val tag_name : int -> string

val stop_complete : int
val stop_budget : int
val stop_violation : int
val stop_name : int -> string

(** {1 Recording} *)

val enable : unit -> unit
val disable : unit -> unit

val on : unit -> bool
(** [true] at startup unless [ASURA_FLIGHTREC] is [off] (or [0],
    [false], [no]; {!Settings.flightrec}, read once).
    @raise Settings.Invalid if [ASURA_FLIGHTREC] is malformed, as do
    {!drain} and {!to_json}; {!record} then records nothing. *)

val with_disabled : (unit -> 'a) -> 'a
(** Run a thunk with recording off, restoring the previous state (also
    on exceptions).  The bench overhead pair measures against this. *)

val record : tag:int -> a:int -> b:int -> c:int -> unit
(** Append one event to the calling domain's ring (unused payload words
    are 0).  A single branch when recording is off; never allocates,
    never blocks.  [fire], [dedup] and 15 [expand]s in 16 reuse the
    ring's last stamp instead of reading the clock (except as a ring's
    first record).  A full ring overwrites its oldest record. *)

type ring
(** One domain's ring. *)

val local : unit -> ring
(** The ring {!record} writes from the calling domain, for a caller that
    records several events in a row: one domain-local lookup, then
    {!record_in} for each.  Use it only on the calling domain.  While
    recording is off it is an inert ring that is never drained. *)

val record_in : ring -> tag:int -> a:int -> b:int -> c:int -> unit
(** {!record} into a ring from {!local}. *)

val set_capacity : int -> unit
(** Ring capacity in records per domain (default 4096, clamped to at
    least 16).  Resets all existing rings.  Only call while quiescent. *)

(** {1 Drain}

    Only call while no pool jobs are in flight (any caller outside a
    worker is): the rings belong to other domains.  Draining does not
    clear the rings. *)

type event = {
  t_ns : int64;  (** absolute monotonic stamp, reconstructed *)
  dom : int;  (** ring creation-order index, stable and small *)
  tag : int;
  a : int;
  b : int;
  c : int;
}

val drain : unit -> event list
(** All surviving records, merged across rings in timestamp order. *)

val total : unit -> int
(** Records ever written, including those overwritten by wrap-around. *)

val dropped : unit -> int
(** Records lost to wrap-around ([total] minus what {!drain} returns). *)

val reset : unit -> unit
(** Zero every ring.  Only call while quiescent. *)

(** {1 Order-free projections}

    The determinism-contract views: counts keyed by stable attributes,
    independent of inter-domain interleaving.  Deterministic across
    domain counts for tags whose cause is deterministic (expand, fire,
    dedup) — steal and compact are scheduling-dependent. *)

val counts_by_tag : event list -> (int * int) list
(** [(tag, count)], sorted by tag. *)

val fire_counts : event list -> ((int * int) * int) list
(** [((coverage table id, row), firings)], sorted — per-rule firing
    counts. *)

(** {1 Signals} *)

val arm_signal_drain : unit -> unit
(** Install SIGINT/SIGTERM handlers that call [exit 130]/[exit 143], so
    the at_exit manifest writer drains the rings and the recording of an
    interrupted run survives.  Idempotent; never overrides an inability
    to trap (e.g. non-Unix). *)

(** {1 JSON} *)

val schema_name : string
(** ["asura-events/1"]. *)

val to_json : unit -> Json.t
(** The live drain as an [asura-events/1] document — embedded under the
    ["events"] key of run manifests.  Timestamps become microseconds
    relative to the oldest surviving event; fire events gain a ["table"]
    member (via {!Coverage.lookup}) because coverage ids are
    process-local. *)

val events_to_json : event list -> Json.t

(** Parsed form of a persisted event. *)
type doc_event = {
  d_t_us : float;
  d_dom : int;
  d_tag : string;
  d_a : int;
  d_b : int;
  d_c : int;
  d_table : string option;
}

val of_json : Json.t -> doc_event list
(** Parse an [asura-events/1] document, or any document carrying an
    ["events"] member of that shape (run manifests).  [[]] when
    absent. *)

val doc_dropped : Json.t -> int
(** The ["dropped"] count carried by a persisted events document. *)

val docs_to_json : ?dropped:int -> doc_event list -> Json.t
(** Re-serialize persisted events (e.g. concatenated across manifests)
    as an [asura-events/1] document. *)
