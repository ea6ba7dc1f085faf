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

(* What a generation run reports: its rows in order, its stats and the
   per-column pruning counters it adds to the solver registry. *)
let observe gen spec =
  Obs.Metrics.reset ();
  let tbl, stats = Obs.Config.with_enabled (fun () -> gen spec) in
  let pruned =
    match Obs.Json.member "solver" (Obs.Metrics.to_json ()) with
    | Some reg -> (
        match Obs.Json.member "counters" reg with
        | Some (Obs.Json.Obj kvs) ->
            List.filter
              (fun (k, _) ->
                String.length k > 7 && String.sub k 0 7 = "pruned.")
              kvs
        | _ -> [])
    | None -> []
  in
  Obs.Metrics.reset ();
  (Table.rows tbl, stats, pruned)

let test_controllers_match_reference () =
  List.iter
    (fun (c : Protocol.controller) ->
      let spec = Protocol.Ctrl_spec.to_solver_spec c.spec in
      let name = Solver.name spec in
      let rows, stats, pruned = observe Solver.generate spec in
      let rows', stats', pruned' = observe Solver.generate_reference spec in
      check (name ^ " rows in order") true (rows = rows');
      check (name ^ " stats") true (stats = stats');
      check (name ^ " has pruning counters") true (pruned <> []);
      check (name ^ " pruning counters") true (pruned = pruned'))
    Protocol.controllers

(* An unknown function raises from the step its constraint becomes
   ready at, as the reference's compile does: even when no row reaches
   the arm that calls it, and even when no parent row is left. *)
let test_unknown_function_parity () =
  let spec ~a_constraint =
    Solver.make ~name:"fn"
      ~columns:
        [
          { Solver.cname = "a"; role = Solver.Input;
            domain = [ v "y"; v "z" ] };
          { Solver.cname = "b"; role = Solver.Output;
            domain = [ Value.Null; v "p" ] };
        ]
      ~constraints:
        [
          "a", a_constraint;
          ( "b",
            Expr.(
              ternary (eq "a" "x")
                (Fn ("nofn", Col "b") &&& Fn ("other", Col "a"))
                (eq_null "b")) );
        ]
  in
  let raised gen spec =
    match gen spec with
    | _ -> None
    | exception Expr.Unknown_function f -> Some f
  in
  let funcs = function "known" -> Some (fun _ -> true) | _ -> None in
  List.iter
    (fun (label, spec) ->
      let want = raised (Solver.generate_reference ~funcs) spec in
      check (label ^ ": the reference raises") true (want = Some "nofn");
      check label true (raised (Solver.generate ~funcs) spec = want))
    [
      "arm no row selects", spec ~a_constraint:Expr.True;
      "zero parent rows", spec ~a_constraint:(Expr.eq "a" "x");
    ]

(* Scenario-shaped specs, as Ctrl_spec derives them: prefix-box
   disjunctions on the inputs, first-match chains on the outputs.
   Scenarios are drawn from a small pool of boxes so duplicate boxes
   are common, and a Copy arm copies an input whose values mostly lie
   outside the output's domain. *)
let scenario_spec_gen =
  let open QCheck.Gen in
  let module C = Protocol.Ctrl_spec in
  let values = [ "p"; "q"; "r" ] and out_values = [ "p"; "s"; "t" ] in
  let* n_in = int_range 1 4 in
  let* n_out = int_range 1 3 in
  let ins = List.init n_in (fun i -> (Printf.sprintf "i%d" i, values)) in
  let outs = List.init n_out (fun i -> (Printf.sprintf "o%d" i, out_values)) in
  let some_of cols arm =
    map (List.filter_map Fun.id)
      (flatten_l
         (List.map
            (fun (c, _) -> oneof [ return None; map (fun a -> Some (c, a)) arm ])
            cols))
  in
  let box =
    some_of ins
      (oneof [ map (fun v -> C.V v) (oneofl values); return (C.Among [ "p"; "r" ]) ])
  in
  let emit =
    some_of outs
      (oneof
         [
           map (fun v -> C.Out v) (oneofl out_values);
           map (fun (src, _) -> C.Copy src) (oneofl ins);
         ])
  in
  let* pool = list_size (int_range 1 4) box in
  let* n = int_range 1 8 in
  let* scenarios =
    flatten_l
      (List.init n (fun i ->
           let* when_ = oneofl pool in
           let* emit = emit in
           return { C.label = Printf.sprintf "s%d" i; when_; emit }))
  in
  return
    (C.to_solver_spec (C.make ~name:"scen" ~inputs:ins ~outputs:outs ~scenarios))

let prop_scenarios_match_reference =
  QCheck.Test.make ~count:200
    ~name:"vectorized extension = reference on scenario-shaped specs"
    (QCheck.make scenario_spec_gen)
    (fun spec ->
      observe Solver.generate spec = observe Solver.generate_reference spec)

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
    Alcotest.test_case "all controllers match the reference" `Quick
      test_controllers_match_reference;
    Alcotest.test_case "unknown function parity" `Quick
      test_unknown_function_parity;
    Test_seed.to_alcotest prop_scenarios_match_reference;
  ]
