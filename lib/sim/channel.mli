(** Mapping in-flight messages to virtual channels.

    The simulator enforces capacities at the {e channel} level: every
    message is assigned a channel by the V table (section 4.1), keyed by
    its name and the roles of its endpoints, and all traffic sharing a
    channel competes for the same finite slots — which is precisely what
    creates the Figure 4 deadlock.  Messages absent from V ride dedicated
    resources (the paper's fix path for [mread], the reserved
    completion-ack slots) and never block. *)

type t = Vc of string | Dedicated of string

val is_blocking : t -> bool
(** Dedicated resources are sized for the worst case and never block. *)

val of_message :
  v:Checker.Vcassign.t -> cls:string -> src:int -> dst:int -> string -> t
(** Channel of a message: [cls] is the FIFO class it travels on (reqq /
    respq / snp / resp / memq / ackq), [src]/[dst] its concrete endpoints
    ({!Mcheck.Mstate.dir} / {!Mcheck.Mstate.mem} / node ids). *)

val occupancy : v:Checker.Vcassign.t -> Mcheck.Mstate.t -> (string * int) list
(** Messages in flight per blocking channel, sorted by channel name. *)

val over_capacity :
  v:Checker.Vcassign.t ->
  capacity:(string -> int) ->
  Mcheck.Mstate.t ->
  string list
(** Blocking channels whose occupancy exceeds their capacity. *)
