(** Transition coverage bitmaps: which rows of each controller table
    have ever fired.

    The store is sharded per domain (like the mcheck dedup table) so
    recording is legal from inside parallel workers; {!snapshot} ORs the
    shards, and because OR is commutative and idempotent the merged
    bitmap is bit-identical no matter how work was scheduled.

    Recording is gated by its own switch, independent of {!Config}: a
    run can collect coverage without paying for spans/metrics and vice
    versa. *)

val enable : unit -> unit
val disable : unit -> unit

val on : unit -> bool
(** Current state; [false] at startup. *)

val with_enabled : (unit -> 'a) -> 'a
(** Run a thunk with coverage recording enabled, restoring the previous
    state afterwards (also on exceptions). *)

val register : id:int -> name:string -> rows:int -> unit
(** Associate a runtime [Table.id] with a table name and row count.
    Idempotent per id; must happen before rows of that table can be
    recorded (unregistered records are dropped). *)

val record : id:int -> row:int -> unit
(** Mark row [row] of the table registered under [id] as fired.  Safe
    from any domain; a single branch when coverage is off. *)

val lookup : id:int -> (string * int) option
(** The (name, rows) a runtime id was registered under — how consumers
    that persist events keyed by table id ({!Flightrec}) translate the
    process-local id into a stable name. *)

(** {2 Snapshots} *)

type table_coverage = {
  name : string;
  rows : int;
  covered : int;  (** popcount of [bitmap] *)
  bitmap : Bytes.t;
      (** LSB-first: row [r] is bit [r land 7] of byte [r lsr 3] *)
}

val merge : (string * int * Bytes.t) list -> table_coverage list
(** OR together the [(name, rows, bitmap)] entries that share (name,
    rows); tables whose row count differs stay separate entries.  Sorted
    by (name, rows) for deterministic output. *)

val snapshot : unit -> table_coverage list
(** {!merge} over all shards — so a regenerated copy of the same
    controller is ORed with the original. *)

val is_covered : table_coverage -> int -> bool
val uncovered : table_coverage -> int list

val totals : table_coverage list -> int * int
(** [(covered, rows)] summed over all tables. *)

val percent : covered:int -> rows:int -> float
(** 100 when [rows = 0]. *)

(** {2 Persistence} *)

val to_hex : Bytes.t -> string
val of_hex : string -> Bytes.t

val table_to_json : table_coverage -> Json.t
val to_json : unit -> Json.t
(** [{covered; rows; percent; tables = [{table; rows; covered; percent;
    bitmap(hex)}]}] — the coverage summary embedded in run manifests. *)

val of_manifest : Json.t -> ((string * int * Bytes.t) list, string) result
(** The [(table, rows, bitmap)] entries of a run manifest's
    ["coverage"] member, ready for {!merge}; [Ok []] when it has none.
    [Error] names the first entry whose [rows] is negative or not an
    integer, or whose bitmap is not exactly [ceil(rows/8)] bytes of
    hex. *)

(** {2 Lifecycle}

    Only call these while no pool jobs are in flight (any caller outside
    a worker is): they touch bitmaps owned by other domains' shards. *)

val reset : unit -> unit
(** Zero all bitmaps, keeping table registrations. *)

val clear : unit -> unit
(** Also drop table registrations.  Meant for test isolation. *)
