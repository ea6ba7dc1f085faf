(** The complete ASURA protocol: all eight controller tables and the
    metadata the static checkers need.

    The paper: "A total of 8 controller database tables were automatically
    generated, updated and maintained throughout the development cycle."
    Here they are D (directory), M (memory), C (cache/snoop), N (node),
    RAC (remote access cache), IO (home device bus), PIF (processor
    interface) and LK (inter-quad link). *)

(** {1 Components} *)

module Topology = Topology
module Message = Message
module State = State
module Ctrl_spec = Ctrl_spec
module Dir_controller = Dir_controller
module Mem_controller = Mem_controller
module Cache_controller = Cache_controller
module Node_controller = Node_controller
module Rac_controller = Rac_controller
module Io_controller = Io_controller
module Pif_controller = Pif_controller
module Link_controller = Link_controller

(** {1 The eight controllers} *)

type controller = {
  spec : Ctrl_spec.t;
  location : Topology.node_class;
      (** the role at which this controller executes; resolves dont-care
          source/destination cells when matching against the
          virtual-channel assignment *)
  in_triples : (string * string * string) list;
      (** (message, source, destination) column triples for inputs *)
  out_triples : (string * string * string) list;
      (** same for outputs; one dependency-table entry per triple *)
  include_in_deadlock : bool;
      (** the link controller is the transport itself and is excluded *)
}

val directory : controller
val memory : controller
val cache : controller
val node : controller
val rac : controller
val io : controller
val pif : controller
val link : controller

val controllers : controller list
(** All eight, D first. *)

val deadlock_controllers : controller list
(** Those participating in the channel-dependency analysis. *)

val find : string -> controller option
(** Look up by table name (D, M, C, N, RAC, IO, PIF, LK). *)

val tables : unit -> Relalg.Table.t list
(** All eight generated tables (memoized). *)

val database : unit -> Relalg.Database.t
(** A database containing all eight tables, with [isrequest] /
    [isresponse] registered. *)

