(** Protocol state spaces and their table encodings (section 2 of the
    paper).

    Cache lines use MESI.  The directory tracks each line with a directory
    state [I] / [SI] / [MESI] plus a presence vector; in-flight
    transactions are tracked in a separate {e busy directory} whose entries
    carry Busy states of the form [Busy-<txn>-<pending>] — the paper's
    Busy-sd / Busy-s / Busy-d discipline, one family per transaction type
    (~40 Busy states in all).

    Presence vectors are encoded in tables the way the paper's Figure 3
    encodes them: the current value as [zero] / [one] / [gone] (no sharers,
    exactly one, more than one) and next-state updates as operations
    [inc] / [dec] / [repl] / [drepl]. *)

(** {1 Cache states (MESI)} *)

type cache_state = M | E | S | I_cache

val all_cache_states : cache_state list

(** {1 Directory states} *)

type dir_state =
  | Dir_i  (** not cached anywhere *)
  | Dir_si  (** shared or invalid: clean copies may exist *)
  | Dir_mesi  (** possibly modified/exclusive at exactly one node *)

(** {1 Busy states} *)

(** Transaction families that allocate a busy-directory entry. *)
type txn =
  | T_read
  | T_fetch
  | T_readex
  | T_swap
  | T_upgrade
  | T_wb
  | T_flush
  | T_repl
  | T_ioread
  | T_iowrite
  | T_iormw
  | T_lock
  | T_racevict

val txn_to_string : txn -> string
val all_txns : txn list

val txn_of_request : string -> txn option
(** The busy family a local request message maps to, e.g.
    [txn_of_request "readex" = Some T_readex]. *)

(** What the directory is still waiting for.  The last three states
    implement writeback-race absorption: when a flush snoop crosses the
    owner's in-flight [wb], the directory absorbs the writeback instead of
    retrying it (otherwise the requester would read stale memory). *)
type pending =
  | Sd  (** both snoop response(s) and a memory response *)
  | S  (** snoop response(s) only *)
  | D  (** memory response only *)
  | W  (** snack seen from the owner: its writeback is in flight *)
  | Mw  (** writeback absorbed and forwarded: memory ack pending, then read *)
  | Sm  (** writeback absorbed early: snoop response and memory ack pending *)
  | Sr  (** writeback absorbed and ordered: snoop response pending, then refetch *)
  | C
      (** data granted: awaiting the requester's completion ack (the
          paper: a transaction "must complete with either D receiving a
          compl response or with D sending such a response").  Holding
          the entry until the ack arrives keeps later snoops from
          overtaking the in-flight grant. *)

val pending_to_string : pending -> string

type busy = { txn : txn; pending : pending }

val busy_to_string : busy -> string
(** e.g. [Busy-readex-sd]. *)

val busy_of_string : string -> busy option

val coherent_txns : txn list
(** The cacheable-data families (read, fetch, readex, swap, upgrade) that
    can race with an owner writeback. *)

val all_busy_states : busy list
(** [txn × {sd, s, d}] plus [coherent_txns × {w, m, sm, sr, c}] — 64
    states, the order of the paper's "around 40 Busy states". *)

val busy_strings : string list

(** {1 Busy-directory state column}

    The busy-directory state column [bdirst] ranges over ["I"] (no entry)
    plus every busy state. *)

val bdir_domain : string list

(** {1 Presence-vector encodings} *)

val pv_values : string list
(** [zero; one; gone]. *)

val pv_ops : string list
(** [inc; dec; repl; drepl] — next-presence-vector operations. *)

val lookup_values : string list
(** [hit; miss] — the directory / busy-directory lookup-result columns. *)

val apply_pv_op : string -> string -> string option
(** [apply_pv_op op pv]: abstract transition of the encoded presence
    vector, e.g. [apply_pv_op "dec" "one" = Some "zero"];
    [apply_pv_op "dec" "gone"] is [Some "gone"] (still >1 or =1 — the
    abstraction keeps [gone] because more than one sharer minus one may
    still exceed one).  [None] when the operation is illegal in that
    state (e.g. [dec] of [zero]). *)
