(* Values, rows and schemas: the storage layer underneath every table. *)

open Relalg

let check = Alcotest.(check bool)
let check_int = Alcotest.(check int)
let check_str = Alcotest.(check string)

let value_gen =
  QCheck.Gen.(
    oneof
      [
        return Value.Null;
        map Value.str (oneofl [ "readex"; "wb"; "I"; "SI"; "Busy-read-d"; "" ]);
        map (fun i -> Value.Int i) small_signed_int;
        map (fun b -> Value.Bool b) bool;
      ])

let value_arb = QCheck.make ~print:Value.to_string value_gen

let test_null_equality () =
  check "null = null" true (Value.equal Value.Null Value.Null);
  check "null <> str" false (Value.equal Value.Null (Value.str ""));
  check "is_null" true (Value.is_null Value.Null);
  check "str not null" false (Value.is_null (Value.str "NULL"))

let test_rendering () =
  check_str "null prints as dash" "-" (Value.to_string Value.Null);
  check_str "sql null" "NULL" (Value.to_sql Value.Null);
  check_str "sql string quoted" "'readex'" (Value.to_sql (Value.str "readex"));
  check_str "int" "42" (Value.to_string (Value.Int 42))

let prop_compare_total =
  QCheck.Test.make ~name:"Value.compare is a total order"
    (QCheck.triple value_arb value_arb value_arb) (fun (a, b, c) ->
      let sgn x = compare x 0 in
      (* antisymmetry and transitivity on a sample *)
      sgn (Value.compare a b) = -sgn (Value.compare b a)
      && (not (Value.compare a b <= 0 && Value.compare b c <= 0)
         || Value.compare a c <= 0))

let prop_hash_consistent =
  QCheck.Test.make ~name:"equal values hash equally"
    (QCheck.pair value_arb value_arb) (fun (a, b) ->
      (not (Value.equal a b)) || Value.hash a = Value.hash b)

let test_row_compare () =
  let r1 = Row.strings [ "a"; "b" ] in
  let r2 = Row.strings [ "a"; "c" ] in
  check "equal rows" true (Row.equal r1 (Row.strings [ "a"; "b" ]));
  check "unequal rows" false (Row.equal r1 r2);
  check "prefix row is smaller" true (Row.compare (Row.strings [ "a" ]) r1 < 0);
  check_int "hash equal" (Row.hash r1) (Row.hash (Row.strings [ "a"; "b" ]))

let test_schema_basics () =
  let s = Schema.of_list [ "inmsg"; "dirst"; "dirpv" ] in
  check_int "arity" 3 (Schema.arity s);
  check_int "index" 1 (Schema.index s "dirst");
  check "mem" true (Schema.mem s "dirpv");
  check "not mem" false (Schema.mem s "bogus");
  Alcotest.check_raises "unknown column" (Schema.Unknown_column "x") (fun () ->
      ignore (Schema.index s "x"))

let test_schema_duplicate () =
  Alcotest.check_raises "duplicate" (Schema.Duplicate_column "a") (fun () ->
      ignore (Schema.of_list [ "a"; "b"; "a" ]))

let test_schema_ops () =
  let s = Schema.of_list [ "a"; "b"; "c" ] in
  check "project reorders"
    true
    (Schema.columns (Schema.project s [ "c"; "a" ]) = [ "c"; "a" ]);
  check "append" true
    (Schema.columns (Schema.append s [ "d" ]) = [ "a"; "b"; "c"; "d" ]);
  check "union compatible with self" true (Schema.union_compatible s s);
  check "order matters" false
    (Schema.union_compatible s (Schema.of_list [ "b"; "a"; "c" ]))

let suite =
  [
    Alcotest.test_case "null equality" `Quick test_null_equality;
    Alcotest.test_case "rendering" `Quick test_rendering;
    Alcotest.test_case "row compare/hash" `Quick test_row_compare;
    Alcotest.test_case "schema basics" `Quick test_schema_basics;
    Alcotest.test_case "schema duplicates" `Quick test_schema_duplicate;
    Alcotest.test_case "schema ops" `Quick test_schema_ops;
    Test_seed.to_alcotest prop_compare_total;
    Test_seed.to_alcotest prop_hash_consistent;
  ]
