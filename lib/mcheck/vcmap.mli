(** A virtual-channel assignment V (section 4.1) resolved onto symbols:
    (message symbol, FIFO class, source is memory) to a channel index,
    or {!dedicated} for a message V leaves out (the paper's [mread] fix,
    the [ackq] completion acks), which never blocks.  Traffic sharing a
    channel competes for its slots: the Figure 4 deadlock.

    {!resolve} reads symbols with {!Mstate.find} and never interns, so a
    message not interned yet rides dedicated: resolve after the
    controller tables load. *)

type t

val dedicated : int

val resolve :
  capacity:(string -> int) -> (string * string * string * string) list -> t
(** V's [(m, s, d, v)] rows, the first row of a triple winning;
    [capacity] gives each channel's slots, by name. *)

val channel : t -> cls:Mstate.sym -> src:int -> Mstate.sym -> int
(** The channel index of a message on FIFO class [cls] from endpoint
    [src], or {!dedicated}. *)

val name : t -> int -> string

val occupancy : t -> Mstate.t -> (string * int) list
(** Messages in flight per occupied channel, in name order. *)

val fits : t -> Mstate.t -> bool
(** No channel holds more messages than its slots. *)
