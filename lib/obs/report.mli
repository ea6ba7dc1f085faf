val reset : unit -> unit
(** Clear the trace buffer, zero all metrics and coverage bitmaps
    (registrations survive), and disarm any pending run manifest. *)
