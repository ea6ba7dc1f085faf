(* Property tests on the controller-specification framework: for random
   sub-specifications of the real directory controller, the generated
   table must satisfy the structural laws the methodology relies on. *)

open Relalg

let spec = Protocol.Dir_controller.spec

(* random non-empty subsequence of D's scenarios, always keeping at least
   one request scenario so the table is non-trivial *)
let scenarios_gen =
  QCheck.Gen.(
    let all = Protocol.Ctrl_spec.scenarios spec in
    let n = List.length all in
    let* mask = list_repeat n bool in
    let chosen =
      List.filteri (fun i _ -> List.nth mask i) all
    in
    return (if chosen = [] then [ List.hd all ] else chosen))

let subspec_arb =
  QCheck.make scenarios_gen ~print:(fun ss ->
      String.concat ","
        (List.map (fun s -> s.Protocol.Ctrl_spec.label) ss))

let generate scenarios =
  fst (Protocol.Ctrl_spec.generate (Protocol.Ctrl_spec.with_scenarios spec scenarios))

(* Every generated row satisfies the guard of some scenario (soundness of
   the derived column constraints). *)
let prop_rows_satisfy_some_guard =
  QCheck.Test.make ~count:20 ~name:"every generated row matches a scenario guard"
    subspec_arb
    (fun scenarios ->
      let spec' = Protocol.Ctrl_spec.with_scenarios spec scenarios in
      let tbl = generate scenarios in
      let schema = Table.schema tbl in
      let guards =
        List.map
          (fun s -> Expr.compile schema (Protocol.Ctrl_spec.guard spec' s))
          scenarios
      in
      List.for_all
        (fun row -> List.exists (fun g -> g row) guards)
        (Table.rows tbl))

(* The table is deterministic: input projection has no duplicates. *)
let prop_deterministic =
  QCheck.Test.make ~count:20 ~name:"generated tables are functions of their inputs"
    subspec_arb
    (fun scenarios ->
      let tbl = generate scenarios in
      let inputs = Table.project Protocol.Dir_controller.input_columns tbl in
      Table.cardinality (Oracle.distinct inputs) = Table.cardinality tbl)

(* Dropping scenarios never adds rows (monotonicity of generation). *)
let prop_monotone =
  QCheck.Test.make ~count:15 ~name:"fewer scenarios never generate more rows"
    subspec_arb
    (fun scenarios ->
      Table.cardinality (generate scenarios)
      <= Table.cardinality (Protocol.Dir_controller.table ()))

(* Rows of a sub-specification form a subset of the full table whenever
   the kept scenarios are a prefix-closed choice... in general overlap
   with the dropped retry fallback can change outputs, so we check the
   weaker law on inputs: every input combination of the sub-table also
   appears in the full table. *)
let prop_inputs_subset =
  QCheck.Test.make ~count:15 ~name:"sub-spec inputs appear in the full table"
    subspec_arb
    (fun scenarios ->
      let sub =
        Table.project Protocol.Dir_controller.input_columns (generate scenarios)
      in
      let full =
        Table.project Protocol.Dir_controller.input_columns
          (Protocol.Dir_controller.table ())
      in
      Table.subset (Oracle.distinct sub) (Oracle.distinct full))

(* The vectorized generator against the boxed reference on random
   subsets of D's scenarios in random order: reordering moves which
   scenario a row's first-match chain picks when several boxes hold. *)
let reordered_arb =
  QCheck.make
    QCheck.Gen.(scenarios_gen >>= shuffle_l)
    ~print:(fun ss ->
      String.concat "," (List.map (fun s -> s.Protocol.Ctrl_spec.label) ss))

let prop_matches_reference =
  QCheck.Test.make ~count:10
    ~name:"generate = reference on reordered scenario subsets"
    reordered_arb
    (fun scenarios ->
      let spec' =
        Protocol.Ctrl_spec.to_solver_spec
          (Protocol.Ctrl_spec.with_scenarios spec scenarios)
      in
      let a, sa = Solver.generate spec' in
      let b, sb = Solver.generate_reference spec' in
      Table.rows a = Table.rows b && sa = sb)

let suite =
  [
    Test_seed.to_alcotest prop_rows_satisfy_some_guard;
    Test_seed.to_alcotest prop_deterministic;
    Test_seed.to_alcotest prop_monotone;
    Test_seed.to_alcotest prop_inputs_subset;
    Test_seed.to_alcotest prop_matches_reference;
  ]
