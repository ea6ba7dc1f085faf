(** Hash indexes over a single column.

    The access path behind the planner's {!Planner.op.Index_scan}: an
    equality predicate on an indexed column becomes a hash lookup
    instead of a scan.  Indexes are immutable values built from a table
    snapshot; {!cached} rebuilds them when a table is replaced.

    Since the columnar refactor the buckets hold row numbers keyed by
    dictionary code: probing first resolves the value through the
    column's dictionary, so a value that never occurs in the table
    misses in O(1), and a hit gathers rows by index without decoding. *)

type t

val build : Table.t -> string -> t
(** Index the given column. @raise Schema.Unknown_column. *)

val source : t -> Table.t
(** The table snapshot the index was built from. *)

val table_name : t -> string
val column : t -> string

val lookup : t -> Value.t -> Row.t list
(** All rows whose indexed cell equals the value, in table order. *)

val lookup_idx : t -> Value.t -> int list
(** Row numbers (into {!source}) whose indexed cell equals the value, in
    table order.  No row is decoded. *)

val lookup_gather : t -> Value.t -> Table.t
(** The matching rows as a table sharing the source's dictionaries —
    what an index lookup materializes. *)

val cached : Table.t -> string -> t
(** The index of [column] over this snapshot, built on first use and
    shared process-wide (mutex-guarded), one entry per (table name,
    column).  An entry built from another snapshot of the same name (a
    different {!Table.id}) is rebuilt. *)

val distinct_keys : t -> int

val consistent : t -> Table.t -> bool
(** Every row of the table is reachable through the index and vice versa
    (used by the property tests). *)
