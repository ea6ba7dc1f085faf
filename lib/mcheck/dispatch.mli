(** Coded first-match dispatch over a controller table's rule list.

    {!Mapping.Codegen.eval_rule} matches string guards against a string
    binding, one [List.assoc] per guard pair.  A dispatch compiles the
    same rule list once, against a fixed binding layout:

    - every binding column gets a slot; the caller's columns come first,
      in the caller's order, followed by any other column a guard names
      (those stay {!absent} unless a binding sets them);
    - every guard value is interned as a {!Mstate.sym} and gets a small
      positive code per slot, held in a per-slot [int array] indexed by
      symbol id; a symbol no guard names codes to one shared "other"
      code and an unset slot holds {!absent}, and neither matches any
      guard, exactly as a non-matching or missing string does under
      [eval_rule];
    - every rule becomes an int guard array and an output-slot array of
      symbols;
    - the rules are bucketed in a direct-address array on the code of
      slot 0 (the discriminator), each bucket in priority order and
      holding every rule that leaves slot 0 unconstrained.

    So {!find} returns exactly the rule [eval_rule] returns for the
    corresponding string binding. *)

type column = { name : string; lits : string array }
(** A binding column.  [lits] lists the fixed values the caller ever
    writes there, coded once at compile time ({!pick}); empty for a
    column that carries a state symbol, coded per write ({!set}). *)

val state : string -> column
val lits : string -> string array -> column

type t

type rule = private {
  row : int;  (** the generating table row ({!Mapping.Codegen.rule}'s) *)
  slots : int array;  (** constrained slots other than the discriminator *)
  codes : int array;  (** the code each of [slots] must hold *)
  out : Mstate.sym option array;  (** the action, by output slot *)
}

val compile :
  inputs:column array -> outputs:string array -> Mapping.Codegen.rule list -> t
(** [inputs.(0)] is the discriminator.  Output slot [j] of every rule is
    its action's value for column [outputs.(j)].  Interns every guard,
    literal and action value, so it runs on the main domain
    ({!Mstate.intern}). *)

val outputs :
  string array -> (string * string) list -> Mstate.sym option array
(** An action laid out on output slots: how {!compile} lays out each
    rule, for callers matching string bindings themselves.  Interns the
    action's values (main domain only). *)

val absent : int
(** The code of an unset slot. *)

val columns : t -> string array
(** Slot [i] binds column [(columns t).(i)]. *)

val binding : t -> int array
(** A fresh binding: each literal column holds its first literal's code,
    every other slot {!absent}. *)

val set : t -> int array -> int -> Mstate.sym -> unit
(** [set t b slot v] codes the state symbol [v]: one bounds check and
    one load from the slot's symbol-to-code array, no string in
    sight. *)

val pick : t -> int array -> int -> int -> unit
(** [pick t b slot i] writes the precomputed code of literal [i] of
    [slot]. *)

val find : t -> int array -> rule option
(** The first rule, in priority order, whose guard the binding meets. *)
