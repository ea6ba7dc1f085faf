(* Tables and relational operators. *)

open Relalg

let schema = Schema.of_list [ "m"; "s" ]
let t rows = Table.of_rows ~name:"t" schema (List.map Row.strings rows)
let check = Alcotest.(check bool)
let check_int = Alcotest.(check int)
let cardinal tbl = Table.cardinality tbl

let test_construction () =
  let tbl = t [ [ "readex"; "local" ]; [ "wb"; "local" ] ] in
  check_int "cardinality" 2 (cardinal tbl);
  check_int "arity" 2 (Table.arity tbl);
  check "mem" true (Table.mem tbl (Row.strings [ "wb"; "local" ]));
  Alcotest.check_raises "arity mismatch"
    (Table.Arity_mismatch { table = "t"; expected = 2; got = 1 }) (fun () ->
      ignore (Table.add tbl (Row.strings [ "x" ])))

let test_distinct_and_sort () =
  let tbl = t [ [ "b"; "1" ]; [ "a"; "1" ]; [ "b"; "1" ] ] in
  check_int "distinct" 2 (cardinal (Table.distinct tbl));
  let sorted = Table.sort tbl in
  check "sorted first" true
    (Row.equal (List.hd (Table.rows sorted)) (Row.strings [ "a"; "1" ]))

let test_subset () =
  let small = t [ [ "a"; "1" ] ] in
  let big = t [ [ "a"; "1" ]; [ "b"; "2" ] ] in
  check "subset" true (Table.subset small big);
  check "not superset" false (Table.subset big small);
  check "equal as sets ignores order and dups" true
    (Table.equal_as_sets
       (t [ [ "a"; "1" ]; [ "b"; "2" ]; [ "a"; "1" ] ])
       (t [ [ "b"; "2" ]; [ "a"; "1" ] ]))

let test_select_project_rename () =
  let tbl = t [ [ "readex"; "local" ]; [ "data"; "home" ]; [ "wb"; "local" ] ] in
  let locals = Ops.select (Expr.eq "s" "local") tbl in
  check_int "select" 2 (cardinal locals);
  let names = Table.project [ "m" ] locals in
  check_int "project keeps duplicates" 2 (cardinal names);
  check_int "project arity" 1 (Table.arity names);
  let renamed = Ops.rename [ "m", "msg" ] tbl in
  check "rename" true (Schema.mem (Table.schema renamed) "msg")

let test_cross () =
  let a = Table.of_rows ~name:"a" (Schema.of_list [ "x" ])
      [ Row.strings [ "1" ]; Row.strings [ "2" ] ]
  in
  let b = Table.of_rows ~name:"b" (Schema.of_list [ "y" ])
      [ Row.strings [ "p" ]; Row.strings [ "q" ]; Row.strings [ "r" ] ]
  in
  check_int "cross product size" 6 (cardinal (Ops.cross a b));
  Alcotest.check_raises "clash" (Ops.Schema_clash "x") (fun () ->
      ignore (Ops.cross a (Ops.rename [ "y", "x" ] b)))

let test_set_ops () =
  let a = t [ [ "a"; "1" ]; [ "b"; "2" ] ] in
  let b = t [ [ "b"; "2" ]; [ "c"; "3" ] ] in
  check_int "union" 3 (cardinal (Ops.union a b));
  check_int "except" 1 (cardinal (Ops.except a b));
  check_int "intersect" 1 (cardinal (Ops.intersect a b));
  check "incompatible schemas rejected" true
    (try
       ignore (Ops.union (Table.project [ "m" ] a) b);
       false
     with Ops.Incompatible_schemas _ -> true)

let test_equi_join () =
  let v =
    Table.of_rows ~name:"v"
      (Schema.of_list [ "msg"; "vc" ])
      [ Row.strings [ "readex"; "VC0" ]; Row.strings [ "data"; "VC3" ] ]
  in
  let d =
    Table.of_rows ~name:"d"
      (Schema.of_list [ "m"; "st" ])
      [ Row.strings [ "readex"; "SI" ]; Row.strings [ "idone"; "Busy" ] ]
  in
  let j = Ops.equi_join ~on:[ "m", "msg" ] d v in
  check_int "join matches" 1 (cardinal j);
  check "joined columns" true (Schema.mem (Table.schema j) "vc");
  check "join key kept once" false (Schema.mem (Table.schema j) "msg")

let test_add_column_and_group () =
  let tbl = t [ [ "a"; "1" ]; [ "a"; "2" ]; [ "b"; "1" ] ] in
  let wide = Ops.add_column ~name:"k" (fun _ -> Value.str "x") tbl in
  check_int "added column arity" 3 (Table.arity wide);
  let counts = Ops.group_count ~by:[ "m" ] tbl in
  check_int "groups" 2 (List.length counts);
  check_int "count of a" 2 (List.assoc (Row.strings [ "a" ]) counts)

(* set-algebra properties on random small tables *)
let rows_gen =
  QCheck.Gen.(
    list_size (int_bound 8)
      (map2 (fun a b -> [ a; b ]) (oneofl [ "a"; "b"; "c" ])
         (oneofl [ "1"; "2" ])))

let table_arb =
  QCheck.make rows_gen ~print:(fun rows ->
      String.concat ";" (List.map (String.concat ",") rows))

let prop_union_commutes =
  QCheck.Test.make ~name:"union commutes (as sets)"
    (QCheck.pair table_arb table_arb) (fun (a, b) ->
      Table.equal_as_sets (Ops.union (t a) (t b)) (Ops.union (t b) (t a)))

let prop_except_disjoint =
  QCheck.Test.make ~name:"a except b is disjoint from b"
    (QCheck.pair table_arb table_arb) (fun (a, b) ->
      Table.is_empty (Ops.intersect (Ops.except (t a) (t b)) (t b)))

let prop_select_partition =
  QCheck.Test.make ~name:"select p + select (not p) = table"
    table_arb (fun rows ->
      let tbl = t rows in
      let p = Expr.eq "m" "a" in
      Table.equal_as_sets (Table.distinct tbl)
        (Ops.union (Ops.select p tbl) (Ops.select (Expr.Not p) tbl)))

let test_profile () =
  let tbl =
    Table.of_rows ~name:"P"
      (Schema.of_list [ "a"; "b" ])
      [
        [| Value.str "x"; Value.Null |];
        [| Value.str "x"; Value.str "y" |];
        [| Value.Null; Value.Null |];
      ]
  in
  let p = Profile.profile tbl in
  check_int "rows" 3 p.Profile.rows;
  check_int "null cells" 3 p.Profile.null_cells;
  check "sparsity" true (abs_float (Profile.sparsity p -. 0.5) < 1e-9);
  let a = List.hd p.Profile.per_column in
  check_int "distinct in a" 1 a.Profile.distinct;
  check "mode of a" true
    (a.Profile.most_common = Some (Value.str "x", 2));
  check "renders" true (String.length (Profile.to_string p) > 0)

let test_profile_sparse_d () =
  (* the paper: D is specified only for legal combinations and is sparse *)
  let p = Profile.profile (Protocol.Dir_controller.table ()) in
  check "D is mostly NULL" true (Profile.sparsity p > 0.4);
  check "columns an order of magnitude fewer than rows" true
    (p.Profile.rows > 10 * p.Profile.columns)

let suite =
  [
    Alcotest.test_case "construction" `Quick test_construction;
    Alcotest.test_case "distinct and sort" `Quick test_distinct_and_sort;
    Alcotest.test_case "subset/containment" `Quick test_subset;
    Alcotest.test_case "select/project/rename" `Quick test_select_project_rename;
    Alcotest.test_case "cross product" `Quick test_cross;
    Alcotest.test_case "set operators" `Quick test_set_ops;
    Alcotest.test_case "equi join" `Quick test_equi_join;
    Alcotest.test_case "add_column and group_count" `Quick test_add_column_and_group;
    Alcotest.test_case "profile statistics" `Quick test_profile;
    Alcotest.test_case "D is sparse (paper claim)" `Quick test_profile_sparse_d;
    Test_seed.to_alcotest prop_union_commutes;
    Test_seed.to_alcotest prop_except_disjoint;
    Test_seed.to_alcotest prop_select_partition;
  ]
