(** Concrete protocol configurations for the explicit-state baseline
    model checker (the comparator of section 4.2: "Model checkers … have
    a lot of reasoning power … However, … the controller tables need to
    be extensively abstracted to avoid the state explosion problem").

    A state fixes [nodes] caches and [addrs] cache lines homed at one
    directory, plus every in-flight message.  Channels are FIFO per
    (source, destination, class) — request, response, snoop and
    memory-path traffic travel on separate channels, which is exactly the
    virtual-channel structure of the protocol (and what makes the
    writeback-absorption path sound: the memory queue orders the absorbed
    [mwrite] before the refetching [mread]).

    Data is abstracted to a freshness bit: a data-bearing message or the
    memory copy is {e fresh} when it reflects the latest write to the
    line.  A completing read that delivers stale data is a coherence
    violation — this is what catches writeback races. *)

(** Endpoints: nodes are [0 .. n-1]. *)
val dir : int
(** The home directory/protocol engine (-1). *)

val mem : int
(** The home memory controller (-2). *)

type msg = {
  m : string;  (** message name, e.g. ["readex"] *)
  src : int;
  dst : int;
  addr : int;
  fresh : bool;  (** data-bearing payload reflects the latest write *)
}

type busy = {
  bst : string;  (** busy state, e.g. ["Busy-readex-sd"] *)
  requester : int;
  acks : int;  (** bitmask of nodes still owing snoop responses *)
  snapshot : int;  (** sharer set captured when the entry was allocated *)
  data_fresh : bool;  (** freshness of the data collected so far *)
}

type addr_state = {
  dirst : string;  (** "I" | "SI" | "MESI" *)
  sharers : int;  (** bitmask *)
  busy : busy option;
  mem_fresh : bool;  (** home memory holds the latest data *)
}

type t = {
  addrs : addr_state list;  (** per address *)
  caches : string list list;  (** [caches.(node).(addr)] in MESI *)
  pend : string option list list;  (** outstanding processor op per node/addr *)
  queues : ((int * int * string) * msg list) list;
      (** FIFO per (src, dst, class); kept sorted by key, no empties *)
}

val initial : nodes:int -> addrs:int -> t
(** Everything invalid, memory fresh, queues empty. *)

val key : t -> string
(** Canonical serialization for the visited set. *)

val permute : (int -> int) -> nodes:int -> t -> t
(** Rename the nodes of a state by a permutation of [0 .. nodes-1]:
    caches, pending ops, presence bitmasks, busy requesters/acks and
    message endpoints all move together. *)

val canonical_key : nodes:int -> t -> string
(** Symmetry-reduced key: the lexicographically smallest {!key} over all
    node permutations.  Nodes are fully interchangeable in the protocol,
    so exploring one representative per orbit is sound (Murphi's
    scalarset reduction); worthwhile up to the 4-node configurations the
    explosion experiments use. *)

val enqueue : t -> cls:string -> msg -> t
val dequeue : t -> int * int * string -> (msg * t) option
val queue_heads : t -> ((int * int * string) * msg) list

val addr_state : t -> int -> addr_state
val set_addr : t -> int -> addr_state -> t
val cache : t -> node:int -> addr:int -> string
val set_cache : t -> node:int -> addr:int -> string -> t
val pending : t -> node:int -> addr:int -> string option
val set_pending : t -> node:int -> addr:int -> string option -> t

val popcount : int -> int

val iter_members : (int -> unit) -> int -> unit
(** [iter_members f mask] calls [f] on every node whose bit is set in
    [mask], in ascending order. *)

val pv_values : string array
(** The zero/one/gone presence-vector encoding, indexed by
    {!pv_index}. *)

val pv_index : int -> int
(** Bitmask cardinality as an index into {!pv_values}. *)

val pv_encode : int -> string
(** [pv_values.(pv_index mask)]. *)

val quiescent : t -> bool
(** No in-flight messages, no busy entries, no pending processor ops. *)

val pp : Format.formatter -> t -> unit
