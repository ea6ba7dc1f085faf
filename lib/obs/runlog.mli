(** Persistent run manifests (schema [asura-run/1]) and the live
    [--progress] heartbeat.

    A manifest records one toolchain invocation end to end: argv, git
    revision, start date, wall time, command-contributed notes, the
    coverage summary, a metrics snapshot, the span roll-up
    ({!Trace.stats_to_json}), the plan log and the flight-recorder
    drain.  The CLI calls {!configure}
    at startup and {!write} from an [at_exit] hook so every exit path
    persists the run. *)

(** {2 Sink}

    Heartbeats (and, under [--log-file], the CLI's log reporter) write
    to this channel — stderr by default, so command stdout stays
    machine-parseable under [--progress]. *)

val set_sink : out_channel -> unit
val sink : unit -> out_channel

(** {2 Manifest} *)

val configure : dir:string -> cmd:string -> argv:string array -> unit
(** Arm manifest writing: the file will land in [dir] as
    [<timestamp>-<cmd>.json].  Resets the wall-time origin and notes. *)

val configured : unit -> bool

val note : string -> Json.t -> unit
(** Attach a command-specific field to the manifest (replaces an earlier
    note under the same key).  Safe from any domain, but commands only
    call it from the spawning domain. *)

val manifest : unit -> Json.t
(** The current manifest document (works even when not {!configured}).
    The live [sys.*] tables are built from it. *)

val write : unit -> string option
(** Write the manifest file, creating the directory if needed; [None]
    when not {!configured}, otherwise the path written. *)

(** {2 Heartbeat} *)

val enable_progress : ?interval_s:float -> unit -> unit
(** Arm {!tick}; [interval_s] defaults to 1s ([0.] emits on every
    tick — used by tests). *)

val disable_progress : unit -> unit
val progress_on : unit -> bool

val tick : (unit -> string) -> unit
(** Emit [render ()] to the sink if at least the configured interval
    has passed since the last beat; cheap no-op otherwise.  Call only
    from the spawning domain (never a parallel worker). *)

(** {2 Lifecycle} *)

val reset : unit -> unit
(** Disarm manifest + progress and drop notes.  Meant for tests. *)
