(* The constraint solver: incremental vs monolithic table generation. *)

open Relalg

let check = Alcotest.(check bool)
let check_int = Alcotest.(check int)

let v = Value.str

let small_spec =
  Solver.make ~name:"toy"
    ~columns:
      [
        { Solver.cname = "inmsg"; role = Solver.Input;
          domain = [ v "read"; v "wb" ] };
        { Solver.cname = "dirst"; role = Solver.Input;
          domain = [ v "I"; v "SI"; v "MESI" ] };
        { Solver.cname = "out"; role = Solver.Output;
          domain = [ Value.Null; v "mread"; v "mwrite" ] };
      ]
    ~constraints:
      [
        ( "dirst",
          Expr.(
            ternary (eq "inmsg" "wb") (eq "dirst" "MESI")
              (isin "dirst" [ "I"; "SI" ])) );
        ( "out",
          Expr.(
            ternary (eq "inmsg" "read") (eq "out" "mread") (eq "out" "mwrite")) );
      ]

let test_generate () =
  let tbl, stats = Solver.generate small_spec in
  (* read x {I, SI} + wb x {MESI} = 3 rows *)
  check_int "rows" 3 (Table.cardinality tbl);
  check_int "columns" 3 (Table.arity tbl);
  check "some candidates pruned" true (stats.Solver.candidates > 3);
  check_int "per-column entries" 3 (List.length stats.Solver.per_column)

let test_monolithic_agrees () =
  let inc, _ = Solver.generate small_spec in
  let mono, _ = Solver.generate_monolithic small_spec in
  check "same table both strategies" true (Table.equal_as_sets inc mono)

let test_incremental_cheaper () =
  let _, si = Solver.generate small_spec in
  let _, sm = Solver.generate_monolithic small_spec in
  check "incremental materializes fewer candidates" true
    (si.Solver.candidates <= sm.Solver.candidates);
  check_int "monolithic candidates = search space"
    (Solver.search_space small_spec) sm.Solver.candidates

let test_inconsistent_constraints () =
  let spec =
    Solver.make ~name:"empty"
      ~columns:
        [ { Solver.cname = "a"; role = Solver.Input; domain = [ v "x" ] } ]
      ~constraints:[ "a", Expr.eq "a" "y" ]
  in
  let tbl, _ = Solver.generate spec in
  check "inconsistent constraints give zero rows" true (Table.is_empty tbl)

let test_unconstrained_column () =
  let spec =
    Solver.make ~name:"free"
      ~columns:
        [
          { Solver.cname = "a"; role = Solver.Input; domain = [ v "x"; v "y" ] };
          { Solver.cname = "b"; role = Solver.Output; domain = [ v "p"; v "q" ] };
        ]
      ~constraints:[]
  in
  let tbl, _ = Solver.generate spec in
  check_int "full cross product" 4 (Table.cardinality tbl)

let test_validation () =
  let col n = { Solver.cname = n; role = Solver.Input; domain = [ v "x" ] } in
  check "unknown constrained column" true
    (try
       ignore
         (Solver.make ~name:"bad" ~columns:[ col "a" ]
            ~constraints:[ "zz", Expr.True ]);
       false
     with Solver.Invalid_spec _ -> true);
  check "duplicate column" true
    (try
       ignore (Solver.make ~name:"bad" ~columns:[ col "a"; col "a" ] ~constraints:[]);
       false
     with Solver.Invalid_spec _ -> true);
  check "empty domain" true
    (try
       ignore
         (Solver.make ~name:"bad"
            ~columns:[ { Solver.cname = "a"; role = Solver.Input; domain = [] } ]
            ~constraints:[]);
       false
     with Solver.Invalid_spec _ -> true)

(* Random specs: both strategies must always agree.  Columns get small
   domains and constraints relating neighbouring columns. *)
let random_spec_gen =
  let open QCheck.Gen in
  let domain = [ v "p"; v "q"; v "r" ] in
  let* n_cols = int_range 0 4 in
  let cols =
    List.init n_cols (fun i ->
        {
          Solver.cname = Printf.sprintf "c%d" i;
          role = (if i < n_cols - 1 then Solver.Input else Solver.Output);
          domain;
        })
  in
  let atom_for i =
    let col = Printf.sprintf "c%d" i in
    oneof
      [
        map (fun s -> Expr.eq col s) (oneofl [ "p"; "q"; "r" ]);
        map (fun s -> Expr.neq col s) (oneofl [ "p"; "q"; "r" ]);
        return Expr.True;
      ]
  in
  let* constraints =
    flatten_l
      (List.init n_cols (fun i ->
           let* mine = atom_for i in
           let* j = int_bound (n_cols - 1) in
           let* other = atom_for j in
           return (Printf.sprintf "c%d" i, Expr.Or (mine, other))))
  in
  return (Solver.make ~name:"rand" ~columns:cols ~constraints)

let prop_strategies_agree =
  QCheck.Test.make ~count:50 ~name:"incremental = monolithic on random specs"
    (QCheck.make random_spec_gen)
    (fun spec ->
      let a, _ = Solver.generate spec in
      let b, _ = Solver.generate_monolithic spec in
      Table.equal_as_sets a b)

(* Constraints of every shape the vectorized extension step hoists:
   conjunctions and disjunctions mixing parts that read the new column
   with parts that do not, ternary chains, negations, column-to-column
   equality and NULL cells, and specs with no column at all.  The
   vectorized generator must match the boxed reference path row for row
   and counter for counter. *)
let rich_spec_gen =
  let open QCheck.Gen in
  let values = [ "p"; "q"; "r" ] in
  let domain = Value.Null :: List.map v values in
  let* n_cols = int_range 0 5 in
  let col i = Printf.sprintf "c%d" i in
  let atom upto =
    let* i = int_bound upto in
    let c = col i in
    oneof
      [
        map (Expr.eq c) (oneofl values);
        map (Expr.neq c) (oneofl values);
        return (Expr.eq_null c);
        map (fun vs -> Expr.isin c vs) (oneofl [ [ "p" ]; [ "p"; "r" ] ]);
        (let* j = int_bound upto in
         return (Expr.Eq (Expr.Col c, Expr.Col (col j))));
      ]
  in
  let rec expr upto depth =
    if depth = 0 then atom upto
    else
      let sub = expr upto (depth - 1) in
      frequency
        [
          (2, atom upto);
          (2, map2 (fun a b -> Expr.And (a, b)) sub sub);
          (2, map2 (fun a b -> Expr.Or (a, b)) sub sub);
          (1, map (fun a -> Expr.Not a) sub);
          (2, map3 Expr.ternary sub sub sub);
        ]
  in
  let* constraints =
    flatten_l
      (List.init n_cols (fun i ->
           let* e = expr i 3 in
           return (col i, e)))
  in
  return
    (Solver.make ~name:"rich"
       ~columns:
         (List.init n_cols (fun i ->
              {
                Solver.cname = col i;
                role = (if i < n_cols - 1 then Solver.Input else Solver.Output);
                domain;
              }))
       ~constraints)

let prop_vectorized_matches_reference =
  QCheck.Test.make ~count:200
    ~name:"vectorized extension = reference on rich constraints"
    (QCheck.make rich_spec_gen)
    (fun spec ->
      let a, sa = Solver.generate spec in
      let b, sb = Solver.generate_reference spec in
      Table.rows a = Table.rows b
      && sa.Solver.candidates = sb.Solver.candidates
      && sa.Solver.evaluations = sb.Solver.evaluations
      && sa.Solver.per_column = sb.Solver.per_column)

let suite =
  [
    Alcotest.test_case "incremental generation" `Quick test_generate;
    Alcotest.test_case "monolithic agreement" `Quick test_monolithic_agrees;
    Alcotest.test_case "incremental prunes earlier" `Quick test_incremental_cheaper;
    Alcotest.test_case "inconsistent constraints" `Quick test_inconsistent_constraints;
    Alcotest.test_case "unconstrained columns" `Quick test_unconstrained_column;
    Alcotest.test_case "spec validation" `Quick test_validation;
    Test_seed.to_alcotest prop_strategies_agree;
    Test_seed.to_alcotest prop_vectorized_matches_reference;
  ]
