(** Channel-dependency extraction and composition (section 4.1).

    A {e dependency} says: consuming a message that arrived on one virtual
    channel requires queue space on another.  Dependencies are read off
    the controller tables: every row with an incoming assignment (message,
    source, destination, channel) ∈ V and an outgoing assignment ∈ V
    contributes one dependency per outgoing message column.

    Dependencies are then {e composed} pairwise: if row R's output
    assignment matches row S's input assignment, the transitive dependency
    (R.input, S.output) is added.  Matching is relaxed in two steps, per
    the paper:
    - {e quad placement}: under each of the five placements of
      (local, home, remote) into quads, roles in the same quad are
      identified (they share physical channels), so e.g. a [remote → home]
      input matches a [home → home] output when H = R;
    - {e transaction interleaving}: message names are ignored, matching on
      (source, destination, channel) only — two different transactions
      queued behind each other on the same channel. *)

type assign = { msg : string; src : string; dst : string; vc : string }

type dep = { input : assign; output : assign }

type provenance =
  | Direct of string  (** read directly off the named controller table *)
  | Composed of {
      first : string;
      second : string;
      placement : Protocol.Topology.placement;
      exact : bool;  (** false when matched ignoring messages *)
    }

type entry = {
  dep : dep;
  provenance : provenance;
  origin : (string * int) list;
      (** The controller-table rows this dependency was read off, as
          (controller name, 0-based row index) pairs: what [why deadlock]
          prints behind each cycle edge.  A [Direct] entry has exactly
          one.  A [Composed] entry derives from its two parents, and its
          rows are the first parent's, then the second's that are not
          among them; {!protocol_dependency} builds them only for a
          match that adds a new dependency. *)
}

val individual : v:Vcassign.t -> Protocol.controller -> entry list
(** The individual controller dependency table. *)

val relocate : Protocol.Topology.placement -> dep -> dep
(** Rewrite the roles of both assignments to their quad representatives —
    the paper's "R2 is modified to R2'" step.  Channels are unchanged. *)

val protocol_dependency :
  ?placements:Protocol.Topology.placement list ->
  ?interleavings:bool ->
  ?fixpoint:bool ->
  v:Vcassign.t ->
  Protocol.controller list ->
  entry list
(** The overall protocol dependency table: union of all individual tables
    and all pairwise compositions under every placement (default: all
    five), with ([interleavings], default true) and without the
    message-ignoring relaxation.  Duplicate dependencies are merged,
    keeping the first provenance.

    Each composition is one {!Relalg.Planner.equi_join} per placement
    and matching mode, on (src, dst, vc), plus msg unless messages are
    ignored, recorded under plan site ["dependency.compose"].  Each side
    of a join keeps only the first entry of each relocated dependency,
    and a match is dropped, before any entry is built, when its (input,
    output) key is already known; what remains is the nested loop over
    ordered table pairs and their entries (left table, right table,
    left entry, right entry) without its duplicates.  The
    [compose_matches.<placement>] and [compose_new.<placement>] counters
    of the [checker] registry count the matches and the new
    dependencies of each placement.

    One call keeps one codebook: every distinct assignment gets an int
    id the first time the call meets it, and keys, relocation (an
    id-to-id map per placement) and the side tables of the joins (built
    from codes, with per-side dictionaries, so the planner's estimates
    are those of row-built tables) all work on ids.  A side is
    flattened once per placement, so the first round's [named ⋈ named]
    relocates each table once.

    [fixpoint] (default false) repeats the composition until no new
    dependency appears — the paper's footnote: "to ensure that [the]
    protocol dependency table includes all the dependencies, it is
    necessary to repeatedly compose … until no new dependencies are
    added.  However, in practice this was not needed."  The iteration is
    semi-naive: with A the dependencies found before the last round and
    Δ its new ones, a round is Δ ⋈ (A ∪ Δ), then A ⋈ Δ, minus all found
    so far.  Experiment E13 measures the footnote: on V-vc4 and
    V-debugged the fixpoint adds rows but no new channel edges or
    cycles; on V-initial it adds one spurious cycle. *)

val of_tables :
  ?placements:Protocol.Topology.placement list ->
  ?interleavings:bool ->
  ?fixpoint:bool ->
  (string * entry list) list ->
  entry list
(** {!protocol_dependency} over named individual tables, each first
    deduplicated: [protocol_dependency ~v cs] is [of_tables] over
    [individual ~v c] for each [c] of [cs]. *)

val to_table : name:string -> entry list -> Relalg.Table.t
(** Eight-column tabular form
    (inmsg, insrc, indst, invc, outmsg, outsrc, outdst, outvc). *)

val pp_dep : Format.formatter -> dep -> unit
val pp_provenance : Format.formatter -> provenance -> unit

val pp_origin : Format.formatter -> (string * int) list -> unit
(** ["D[row 12] + M[row 3]"]. *)
