(** Reconstruction check: mapping to hardware preserves the debugged table
    (section 5).

    "Each SQL table operation that modifies an extended table must specify
    the corresponding SQL table operations to reconstruct the original
    table from the resulting tables … it is checked using SQL constraints
    that the resulting table contains the original debugged table."

    The inverse of {!Partition} is a join of each side's tables on ED's
    input columns followed by a union; {!check} verifies that the rebuilt
    table equals ED and still contains every row of D. *)

type outcome = {
  rebuilt_ed : Relalg.Table.t;
  ed_preserved : bool;  (** rebuilt ED = original ED (as row sets) *)
  d_preserved : bool;  (** original D ⊆ projection of the rebuilt ED *)
  missing_rows : Relalg.Table.t;  (** D rows lost by the mapping, if any *)
}

val reconstruct : Relalg.Database.t -> Relalg.Table.t
(** Rebuild ED from the nine implementation tables in a database produced
    by {!Partition.run}.  The joins run on {!Relalg.Planner.equi_join}
    and report to the plan observatory under site
    ["mapping.reconstruct"]. *)

val check : ?db:Relalg.Database.t -> unit -> outcome
(** Run the full round trip (partition, reconstruct, compare). *)
