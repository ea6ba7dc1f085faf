(** Monotonic clock, nanosecond resolution. *)

val now_ns : unit -> int64
(** Nanoseconds from an arbitrary fixed origin; never goes backwards. *)

val now_int_ns : unit -> int
(** [now_ns] as an immediate int (63 bits of nanoseconds: centuries of
    range); reading it allocates nothing. *)

val to_us : int64 -> float
val to_ms : int64 -> float
val to_s : int64 -> float

val since : int64 -> int64
(** [since t0] is [now_ns () - t0]. *)

val timed : (unit -> 'a) -> 'a * int64
(** Run a thunk, returning its result and elapsed nanoseconds. *)
