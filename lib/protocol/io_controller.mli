(** The home I/O (device bus) controller table IO.

    Receives the directory's uncached-I/O requests on the memory path and
    answers on the home response path, mirroring {!Mem_controller} for the
    I/O address space.  A busy device yields [mnack], which D turns into a
    [nack] to the requester. *)

val spec : Ctrl_spec.t
