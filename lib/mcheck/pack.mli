(** Bit-packed state vectors and the packed visited set.

    The throughput core of the checker: an {!Mstate.t} is encoded into a
    short immutable [int array] whose field widths are fixed once per
    model from per-field code-table cardinalities, so the visited set
    compares and hashes machine words instead of Marshal strings.  The
    state's symbolic fields are already {!Mstate.sym} ids; each field
    maps an id to its dense field code by one array load, so no string
    is hashed per state.  [pack]/[unpack] are exact
    inverses over {e arbitrary} states (the qcheck battery in
    [test/test_pack.ml] proves round-trip and
    pack-equality ⟺ structural-equality), so counterexample replay and
    MSC rendering never notice the representation. *)

type layout
(** Field widths + per-field code tables (symbol id → code, code →
    symbol id) for one model shape.  Build once (on the main domain: it
    interns its seeds), share across a whole search; packing against a
    layout is safe from pool workers as long as the seed vocabulary
    covers every symbol that can appear.  A symbol the seeds missed gets
    the next code on the main domain and raises [Invalid_argument] on
    any other. *)

exception Overflow of string
(** A code table outgrew its field width (or a structural field its
    fixed width).  Recover with {!refresh}: vectors packed before the
    refresh remain decodable with the {e old} layout value. *)

val layout :
  nodes:int ->
  addrs:int ->
  capacity:int ->
  dirst:string list ->
  bst:string list ->
  cache:string list ->
  pend:string list ->
  msg:string list ->
  unit ->
  layout
(** [capacity] bounds per-channel queue length (one headroom bit is
    added); the five string lists, interned, seed the per-field code
    tables in list order (typically harvested from the controller tables
    via {!Semantics.pack_vocab}).  Every field width gets one headroom
    bit, so a table can roughly double before {!Overflow}. *)

val refresh : layout -> layout
(** Recompute field widths from current code-table sizes (plus
    headroom).  The tables are shared with the old layout — codes never
    change — but packed vectors are only comparable when produced by the
    same layout value. *)

type writer
(** An encoder's scratch: the word buffer plus every array a pack or a
    canonical scan needs, grown on demand and reused.  A search
    participant owns one and keys every state it meets through it, so
    keying allocates nothing once the arrays have grown.  A writer
    belongs to one domain at a time. *)

val writer : unit -> writer

val pack_into : writer -> ?perm:int array * int array -> layout -> Mstate.t -> int
(** Encode into the writer and return the encoded length [n]: the
    encoding is [(buffer wr).(0 .. n-1)], valid until the writer's next
    use.  [perm = (m, m⁻¹)] applies the node permutation [m] during
    encoding — the words equal those of [pack l (Mstate.permute m st)]
    without materializing the permuted state. *)

val canonical_into : writer -> layout -> Mstate.t -> int
(** {!canonical} into the writer, returned like {!pack_into}.  A state
    whose node signatures do not tie packs without allocating. *)

val buffer : writer -> int array
(** The writer's word buffer: read it after the encode call, which may
    replace it with a longer one. *)

val pack : ?perm:int array * int array -> layout -> Mstate.t -> int array
(** {!pack_into} a fresh writer, as a vector of exactly the encoded
    length that the caller owns. *)

val unpack : layout -> int array -> Mstate.t
(** Exact inverse of {!pack} (with the identity permutation). *)

val signatures : layout -> Mstate.t -> int array
(** One integer per node, equivariant under node permutations:
    [(signatures l (Mstate.permute m st)).(m j) = (signatures l st).(j)].
    Built from the node's directory bits, cache and pending rows and the
    channels it ends (other node ids anonymised), mixing symbol ids, so
    nodes that play different roles rarely tie. *)

val canonical : layout -> Mstate.t -> int array
(** The packed analogue of {!Mstate.canonical_key}: the least packed
    vector over the node permutations that sort {!signatures} into
    non-decreasing order.  Two states get equal vectors iff one is a
    node permutation of the other.  Costs one pack per arrangement of
    each group of tying nodes — usually one pack in all.  Like {!pack},
    a fresh writer and an exact-length result. *)

val equal : int array -> int array -> bool
(** Word-by-word compare; with a shared layout this is exactly
    structural state equality. *)

val hash : int array -> int
(** Deterministic across domains and runs (pure arithmetic, no seed). *)

val compare_packed : int array -> int array -> int
(** Total order (length, then lexicographic by word). *)

(** Sharded open-addressing visited set over packed vectors.  Each of
    the 64 shards has its own lock, so stealing workers contend only on
    shard collisions.  With [compact_bits n] only an n-bit fingerprint
    is stored per state (Stern–Dill hash compaction): memory is bounded
    and dedup stays O(1), but a fingerprint collision silently merges
    two distinct states — searches over a compacted set must be
    reported as probabilistic. *)
module Vset : sig
  type t

  val create : ?compact_bits:int -> unit -> t
  (** [compact_bits] must be within [8..62] when given. *)

  val add_words : t -> int array -> int -> bool
  (** [add_words t buf len] inserts the vector [buf.(0 .. len-1)];
      [true] iff it (or, compacted, its fingerprint) was not already
      present.  The words are copied only when inserted, so [buf] may be
      a writer's {!buffer}.  Thread-safe. *)

  val add : t -> int array -> bool
  (** [add_words t v (Array.length v)]. *)

  val mem : t -> int array -> bool

  val cardinal : t -> int

  val iter : t -> (int array -> unit) -> unit
  (** Exact mode only.  @raise Invalid_argument on a compacted set. *)

  val probabilistic : t -> bool

  val words : t -> int
  (** Approximate heap words held in slots (capacity + stored vectors). *)
end
