(** Labeled metric registries: counters, gauges and histograms.

    One registry per subsystem ([Metrics.registry "mcheck"], …); handles
    are memoized per (registry, name) so call sites can re-request them
    cheaply.  All mutators are no-ops while {!Config.on} is [false]. *)

type counter
type gauge
type histogram
type registry

val registry : string -> registry
(** Find or create a named registry. *)

val all_registries : unit -> registry list
(** In creation order. *)

(** {2 Counters} *)

val counter : registry -> string -> counter
val incr : counter -> unit
val add : counter -> int -> unit
val count : counter -> int

val aggregate : string -> int
(** Sum of every counter with this name across all registries. *)

(** {2 Gauges} *)

val gauge : registry -> string -> gauge

val set : gauge -> float -> unit
(** Record the current value; the maximum ever set is kept too. *)

(** {2 Histograms} *)

val exponential_bounds : ?start:float -> ?factor:float -> int -> float array
(** [exponential_bounds ~start ~factor n]: [start], [start*factor], … *)

val histogram : ?bounds:float array -> registry -> string -> histogram
(** [bounds] are strictly increasing upper bucket bounds; an implicit
    overflow bucket is appended.  Defaults to 10 powers of 4.

    Lookup-or-create: re-requesting an existing name returns the
    existing histogram with its original bounds — the [bounds] argument
    (even a malformed one) is ignored then, so repeated runs in one
    process never raise on re-registration.
    @raise Invalid_argument if the handle is being created and [bounds]
    is empty or not strictly increasing. *)

val observe : histogram -> float -> unit
val observations : histogram -> int
val mean : histogram -> float

val quantile : histogram -> float -> float
(** Bucket-resolution quantile estimate ([quantile h 0.5] = median). *)

(** {2 Lifecycle and export} *)

val reset : unit -> unit
(** Zero every metric in every registry (handles stay valid). *)

val to_json : unit -> Json.t
(** Snapshot of every registry that recorded something since the last
    {!reset} (a non-zero counter, a gauge sample or a histogram
    observation), sorted so identical runs render byte-identically;
    embedded under ["metrics"] in [asura-run/1] manifests.  Per
    registry: ["counters"] maps names to counts, ["gauges"] to
    [{value; max; n}] ([n] = samples set) and ["histograms"] to
    [{n; mean; p50; p95; p99; max; buckets}], where [buckets] lists the
    nonzero buckets in bound order: [{le; n}] per bounded bucket and
    [{gt; n}] (gt = the last bound) for the overflow bucket. *)
