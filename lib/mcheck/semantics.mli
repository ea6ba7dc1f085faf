(** Operational semantics of the protocol, driven directly by the
    generated controller tables.

    Each transition either {e issues} a processor operation through the
    PIF table or {e delivers} the head of one FIFO to its endpoint and
    executes the matching row of the D / C / N / M table.  Executing the
    tables (rather than a hand-written re-implementation) means the model
    checker validates exactly the artifact the methodology produces — the
    same rows that are mapped to hardware in section 5. *)

type tables
(** The six executable controller tables (D, C, N, PIF, M, IO) as rule
    lists, each with the fixed binding and action layout the semantics
    fires it through. *)

val load_tables : unit -> tables
(** Rule lists that dispatch through the naive first-match scan
    ({!Mapping.Codegen.eval_rule}): the boxed reference engine and the
    simulators run on these.  Loading interns every table cell as a
    {!Mstate.sym}, including the [backoff:<op>] form of every [pendop]
    value, so it runs on the main domain. *)

val load_tables_with : ?dir:Protocol.Ctrl_spec.t -> unit -> tables
(** Like {!load_tables} but with the directory-controller specification
    replaced — used to model-check seeded-bug variants of D. *)

val index_tables : tables -> tables
(** Each ruleset compiled once into a coded {!Dispatch}: integer guards
    bucketed on the input message (the processor op for PIF) and
    actions laid out on output slots, so a delivery codes its state
    symbols with a few array loads and compares small integers.
    First-match semantics — including the matched row recorded in the
    coverage bitmaps and the flight recorder — are exactly those of the
    naive scan; the packed exploration engine runs on compiled tables
    while the boxed reference engine keeps the naive scan the
    differential suite trusts. *)

val dispatches :
  tables -> (string * Mapping.Codegen.rule list * Dispatch.t) list
(** Every compiled ruleset of [tables] (none unless {!index_tables}
    made them): table name, the naive rule list, its dispatch. *)

type config = {
  nodes : int;  (** caches in the system (2–5 are practical) *)
  addrs : int;  (** distinct cache lines (1–2 are practical) *)
  ops : string list;
      (** processor operations the workload may issue, from
          [load; store; evictmod; evictsh]; {!successors} resolves them
          to symbols read-only, once per list (memoised on the list's
          physical identity), and drops any op no table names *)
  capacity : int;
      (** FIFO capacity per (source, destination, class) channel; a
          transition whose outputs would overflow a queue is disabled
          (hardware backpressure), which both keeps the state space
          finite and lets the search find channel deadlocks *)
  io_addrs : int list;
      (** addresses living in the uncached I/O space: only I/O operations
          ([ioload] / [iostore] / [iormwop]) target them, and they are
          served by the device-bus (IO) controller table *)
  lossy : bool;
      (** inter-node links may silently drop a message (the link
          controller's crcdrop behaviour); the search then finds the
          orphaned transactions lost messages leave behind — the protocol
          has no timeout/recovery layer, as in the paper *)
}

type outcome =
  | Next of Mstate.t
  | Broken of string  (** the transition exposed a protocol error *)

val successors :
  ?labels:bool -> tables -> config -> Mstate.t -> (string * outcome) list
(** All enabled transitions with human-readable labels.  [~labels:false]
    returns [""] in place of every label, skipping the rendering cost —
    for engines that reconstruct traces by replay instead of storing a
    label per visited state. *)

val state_violations : config -> Mstate.t -> string list
(** Structural coherence violations of a state itself: two owners, an
    owner coexisting with sharers, or caches alive under an idle invalid
    directory. *)

(** {1 Single-step primitives}

    Exposed for the queue-accurate simulator ({!Sim}), which schedules
    deliveries itself against virtual-channel capacities instead of
    exploring all interleavings. *)

val deliver :
  ?config:config ->
  tables ->
  Mstate.t ->
  cls:Mstate.sym ->
  dst:int ->
  Mstate.msg ->
  outcome
(** Process one already-dequeued message at its endpoint.  [config]
    defaults to an all-memory address space (only [io_addrs] is
    consulted here). *)

val issue_op :
  tables -> Mstate.t -> node:int -> addr:int -> op:Mstate.sym -> Mstate.t option
(** Run one processor operation through the PIF table; [None] if it is a
    pure cache hit (no state change) or undefined for the line state. *)

val reissue : Mstate.t -> node:int -> addr:int -> Mstate.t option
(** Re-enter a backed-off (retried) operation into the network as a
    fresh request; [None] if nothing is backed off at that line. *)

val dir_binding :
  config -> Mstate.t -> cls:Mstate.sym -> Mstate.msg -> (string * string) list
(** The input binding the directory table sees for a message — also the
    first half of the ED binding used by the implementation-level
    simulator ({!Sim.Impl_runner}). *)

val directory_rules : tables -> Mapping.Codegen.rule list
(** The compiled directory rule list (for gating against ED variants). *)

val pack_vocab : tables -> (string * string list) list
(** Every (column, value) string pair appearing in any guard or action
    of the compiled tables, grouped by column and sorted.  The
    bit-packer ({!Pack.layout}) seeds its per-field codes from this, so
    packing in pool workers never meets a symbol its layout lacks. *)
