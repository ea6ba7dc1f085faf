(** The [ASURA_*] environment knobs, each declared once.

    A declaration holds the variable's name, the spellings it accepts,
    its default and the one line that refuses anything else.  Every
    reader in the tree goes through this module, so a value means the
    same thing to [asura], [bench/main.exe] and the libraries, and a
    malformed value is refused, never read as the default:

    - [ASURA_DOMAINS]: an integer of at least 1 ([int_of_string]'s
      spellings); default 1.  The default degree of [Par.Pool].
    - [ASURA_FLIGHTREC]: [on]/[off], [1]/[0], [true]/[false],
      [yes]/[no]; default on.  The flight recorder's initial state.
    - [ASURA_PLAN_BUILD]: [left]/[right], [LEFT]/[RIGHT], [l]/[r], or
      the empty string (unset); default unset.  Forces the build side of
      every planner join: the planted plan regression the plan gate
      drills with.

    The binaries call {!check} before any work and exit 2 on its line.
    Library readers raise {!Invalid} with the same line no later than
    the first call that shows the knob's effect. *)

exception Invalid of string
(** A malformed value: the one-line message, naming the variable (or
    flag) and the value, e.g. [ASURA_DOMAINS must be an integer >= 1
    (got "abc")].  The binaries print it after their own prefix. *)

(** {1 Readers}

    Each reads the environment on every call and raises {!Invalid} on a
    malformed value. *)

val domains : unit -> int
val flightrec : unit -> bool

val plan_build : unit -> bool option
(** [Some true]: build every join on its left input; [Some false]: on
    its right; [None]: the planner chooses. *)

(** {1 Parsers}

    The declarations' parsers, for a value that comes from elsewhere.
    Each raises {!Invalid}. *)

val parse_domains : name:string -> string -> int
(** [ASURA_DOMAINS]'s parser, with the message naming [name]: it also
    reads [--domains] in both binaries. *)

val parse_flightrec : string -> bool
val parse_plan_build : string -> bool option

(** {1 Whole configuration} *)

val check : unit -> string option
(** The first malformed knob's line, in the order above, or [None]. *)

val to_json : unit -> Json.t
(** Each knob's parsed value under its variable name, [null] when unset
    (and for an empty [ASURA_PLAN_BUILD]): the [settings] member of run
    manifests and bench snapshots.
    @raise Invalid on a malformed value. *)
