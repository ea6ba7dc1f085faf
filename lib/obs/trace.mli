(** Span/event recording with Chrome trace-event export.

    All entry points are no-ops while {!Config.on} is [false].  Events
    accumulate in a global in-memory buffer; {!save} writes a JSON file
    loadable in [chrome://tracing] or Perfetto. *)

type args = (string * Json.t) list

(** A completed span. *)
type span = {
  name : string;
  cat : string;
  ts_us : float;  (** microseconds since the first recorded event *)
  dur_us : float;
  depth : int;  (** nesting depth when the span opened (0 = root) *)
  tid : int;
      (** id of the domain that recorded the span — each domain gets its
          own thread track in the Chrome-trace view, so worker chunks of
          a parallel kernel appear under the domain that ran them *)
  args : args;
}

type event =
  | Complete of span
  | Instant of {
      name : string;
      cat : string;
      ts_us : float;
      tid : int;
      args : args;
    }
  | Counter of { name : string; ts_us : float; values : (string * float) list }

(** Recording is safe from any domain: the buffer is mutex-guarded and
    span nesting depth is tracked per domain. *)

val with_span : ?cat:string -> ?args:args -> string -> (unit -> 'a) -> 'a
(** Time a thunk; the span is recorded when it returns (also on
    exceptions).  Spans nest freely. *)

val instant : ?cat:string -> ?args:args -> string -> unit
(** A point-in-time marker. *)

val counter : string -> (string * float) list -> unit
(** A counter sample; Perfetto renders series of these as a stacked
    time-series track. *)

val events : unit -> event list
(** Recorded events, oldest first (completion order for spans: a child
    span always precedes its parent). *)

val reset : unit -> unit

val to_json : unit -> Json.t
val export : unit -> string

val save : string -> unit
(** Write the Chrome trace JSON to a file. *)

val stats_to_json : unit -> Json.t
(** Spans rolled up by name, in first-appearance order, as a list of
    [{span; count; total_us; min_us; max_us}] — embedded under ["spans"]
    in [asura-run/1] manifests. *)
