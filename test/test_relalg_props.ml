(* Algebraic laws of the relational engine, checked on random tables:
   the rewrites the optimizer and the access-path selector rely on must
   hold whatever the data — selection distributes over union, the hash
   index is invisible to query results, and equi-joins commute up to
   column order. *)

open Relalg

let value_pool = [ "a"; "b"; "c"; "d" ]

let table_gen ~name ~cols =
  QCheck.Gen.(
    let* n = int_bound 60 in
    let* rows =
      list_repeat n
        (let* cells =
           flatten_l (List.map (fun _ -> oneofl value_pool) cols)
         in
         return (Row.strings cells))
    in
    return (Table.of_rows ~name (Schema.of_list cols) rows))

let pred_gen =
  QCheck.Gen.(
    let* col = oneofl [ "k"; "x" ] in
    let* v = oneofl value_pool in
    let* negate = bool in
    return (if negate then Expr.Not (Expr.eq col v) else Expr.eq col v))

let print_table t =
  Printf.sprintf "%s(%d rows)" (Table.name t) (Table.cardinality t)

(* σ_p (a ∪ b) = σ_p a ∪ σ_p b *)
let prop_select_union =
  QCheck.Test.make ~count:500
    ~name:"selection distributes over union"
    (QCheck.make
       QCheck.Gen.(
         triple
           (table_gen ~name:"a" ~cols:[ "k"; "x" ])
           (table_gen ~name:"b" ~cols:[ "k"; "x" ])
           pred_gen)
       ~print:(fun (a, b, p) ->
         Printf.sprintf "%s, %s, %s" (print_table a) (print_table b)
           (Expr.to_sql p)))
    (fun (a, b, p) ->
      Table.equal_as_sets
        (Oracle.select p (Oracle.union a b))
        (Oracle.union (Oracle.select p a) (Oracle.select p b)))

(* The hash index is an access path, not a semantics change: the same
   query through the planner returns the same rows with and without an
   index on the filtered column. *)
let prop_indexed_scan =
  QCheck.Test.make ~count:500
    ~name:"indexed scan returns the same rows as a sequential scan"
    (QCheck.make
       QCheck.Gen.(pair (table_gen ~name:"t" ~cols:[ "k"; "x" ]) (oneofl value_pool))
       ~print:(fun (t, v) -> Printf.sprintf "%s, k=%s" (print_table t) v))
    (fun (t, v) ->
      let db = Database.add Database.empty t in
      let sql = Printf.sprintf "SELECT * FROM t WHERE k = '%s'" v in
      let run ?indexes () =
        Planner.execute db
          (Planner.plan ?indexes db
             (Plan.of_query (Sql_parser.parse_query sql)))
      in
      Table.equal_as_sets (run ()) (run ~indexes:[ "t", "k" ] ()))

(* a ⋈ b = b ⋈ a on row multisets, modulo column order. *)
let prop_join_commutes =
  QCheck.Test.make ~count:500
    ~name:"equi-join commutes on row multisets"
    (QCheck.make
       QCheck.Gen.(
         pair
           (table_gen ~name:"a" ~cols:[ "k"; "x" ])
           (table_gen ~name:"b" ~cols:[ "k"; "y" ]))
       ~print:(fun (a, b) ->
         Printf.sprintf "%s, %s" (print_table a) (print_table b)))
    (fun (a, b) ->
      let normalize t =
        List.sort Row.compare (Table.rows (Table.project [ "k"; "x"; "y" ] t))
      in
      normalize (Oracle.equi_join ~on:[ "k", "k" ] a b)
      = normalize (Oracle.equi_join ~on:[ "k", "k" ] b a))

let suite =
  [
    Test_seed.to_alcotest prop_select_union;
    Test_seed.to_alcotest prop_indexed_scan;
    Test_seed.to_alcotest prop_join_commutes;
  ]
