(** The queue-accurate protocol simulator.

    Executes the same table-driven semantics as the model checker, but
    under a single schedule with finite virtual channels: a delivery is
    possible only if all its outputs fit their channels.  A scripted
    prefix pins the interesting interleaving (the paper's Figure 4 needs
    a specific crossing of two transactions); afterwards the runner
    free-runs deliveries round-robin until the system drains or wedges.

    A wedged run reports the circular wait: which channels are full and
    which blocked delivery each one is waiting on — the dynamic
    counterpart of the static VCG cycle. *)

type config = {
  channels : Mcheck.Vcmap.t;  (** the assignment under test, resolved *)
  nodes : int;
  addrs : int;
  io_addrs : int list;  (** addresses in the uncached I/O space *)
}

val config :
  ?io_addrs:int list -> nodes:int -> addrs:int -> capacity:(string -> int) ->
  Checker.Vcassign.t -> config
(** A config running V with [capacity] slots per channel: V is resolved
    once, after {!tables} load. *)

val uniform_capacity : int -> string -> int

type event =
  | Issue of { node : int; addr : int; op : string }
  | Deliver of { src : int; dst : int; cls : string }
      (** deliver the head of this FIFO *)

type result =
  | Quiescent of { steps : int }
  | Deadlock of {
      steps : int;
      occupancy : (string * int) list;  (** in-flight per channel *)
      blocked : string list;  (** one line per undeliverable queue head *)
    }

exception Script_error of string
(** A scripted event was not enabled (or a table had no row for it). *)

val tables : Mcheck.Semantics.tables Lazy.t
(** The controller tables every simulator in this library runs on,
    loaded and compiled ({!Mcheck.Semantics.index_tables}) once. *)

(** {1 The step}

    Every schedule — scripted events, the free run, the blocked-head
    report, {!Scenario.stress} — takes its steps through these two.  A
    step is enabled only if its outputs fit their channels; that check
    lives here and nowhere else.  Each returns the step's trace label
    with the new state, or [None] when the step is not enabled.  Neither
    raises for a disabled step; {!try_deliver} raises {!Script_error}
    only when a table has no row for the message (a protocol error). *)

val try_deliver :
  config ->
  Mcheck.Mstate.t ->
  int * int * Mcheck.Mstate.sym ->
  (string * Mcheck.Mstate.t) option
(** Deliver the head of the FIFO [(src, dst, cls)]; [None] when the
    queue is empty or the outputs do not fit. *)

val try_issue :
  config ->
  Mcheck.Mstate.t ->
  node:int ->
  addr:int ->
  op:Mcheck.Mstate.sym ->
  (string * Mcheck.Mstate.t) option
(** Issue a processor operation through the PIF table; [None] when an
    operation is already pending at the line, the op is a cache hit or
    undefined for the line state, or its request does not fit. *)

val collect : unit -> (string -> unit) * (unit -> string list)
(** A [~trace] sink that keeps the lines, and the lines so far in
    order. *)

val run :
  ?script:event list ->
  ?trace:(string -> unit) ->
  ?max_steps:int ->
  config ->
  Mcheck.Mstate.t ->
  result * Mcheck.Mstate.t

val pp_result : Format.formatter -> result -> unit
