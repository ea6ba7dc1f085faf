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

(** {1 Symbols}

    Every symbolic field of a state — directory state, busy state, cache
    state, pending op (including its [backoff:<op>] form), message name
    and queue class — is a {!sym}: a small int naming a string in one
    process-wide table.  States therefore compare, hash, pack and
    dispatch on machine words; strings only reappear when something is
    printed ({!name}).

    The domain rule: {!intern} runs on the main domain only, and raises
    anywhere else.  The semantics interns every symbol a search can meet
    when the controller tables are loaded and compiled, so stealing
    workers only ever read symbols ({!name} is safe from any domain). *)

type sym = int

val intern : string -> sym
(** The id of a string, allocating the next id on first sight.  Ids are
    dense from 0 and never change.
    @raise Invalid_argument when called off the main domain. *)

val find : string -> sym option
(** The id of a string already interned, without interning: a read of
    the table, safe from any domain because nothing interns while a
    search runs. *)

val name : sym -> string
(** The string an id was interned from. *)

(** The six channel classes.  They are interned before any other symbol
    and in string order ([ackq < memq < reqq < resp < respq < snp]), so
    queue keys ordered by class id are ordered exactly as by the class
    strings: {!field-queues} order, successor order, BFS order and every
    counterexample trace are those of the string-keyed model. *)

val ackq : sym
val memq : sym
val reqq : sym
val resp : sym
val respq : sym
val snp : sym

type msg = {
  m : sym;  (** message name, e.g. [intern "readex"] *)
  src : int;
  dst : int;
  addr : int;
  fresh : bool;  (** data-bearing payload reflects the latest write *)
}

type busy = {
  bst : sym;  (** busy state, e.g. [intern "Busy-readex-sd"] *)
  requester : int;
  acks : int;  (** bitmask of nodes still owing snoop responses *)
  snapshot : int;  (** sharer set captured when the entry was allocated *)
  data_fresh : bool;  (** freshness of the data collected so far *)
}

type addr_state = {
  dirst : sym;  (** "I" | "SI" | "MESI" *)
  sharers : int;  (** bitmask *)
  busy : busy option;
  mem_fresh : bool;  (** home memory holds the latest data *)
}

type t = {
  addrs : addr_state list;  (** per address *)
  caches : sym list list;  (** [caches.(node).(addr)] in MESI *)
  pend : sym option list list;  (** outstanding processor op per node/addr *)
  queues : ((int * int * sym) * msg list) list;
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

val enqueue : t -> cls:sym -> msg -> t
val dequeue : t -> int * int * sym -> (msg * t) option

val without_head : t -> int * int * sym -> t
(** The state after its channel's head message leaves: the second half
    of {!dequeue}, for a caller that already holds the head. *)

val queue_heads : t -> ((int * int * sym) * msg) list

val addr_state : t -> int -> addr_state
val set_addr : t -> int -> addr_state -> t
val cache : t -> node:int -> addr:int -> sym
val set_cache : t -> node:int -> addr:int -> sym -> t
val pending : t -> node:int -> addr:int -> sym option
val set_pending : t -> node:int -> addr:int -> sym option -> t

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
(** Prints every symbol through {!name}. *)
