(* The column-constraint language: evaluation, compilation, rendering. *)

open Relalg

let schema = Schema.of_list [ "inmsg"; "dirst"; "dirpv" ]
let row inmsg dirst dirpv = Row.of_list [ inmsg; dirst; dirpv ]
let srow a b c = row (Value.str a) (Value.str b) (Value.str c)
let check = Alcotest.(check bool)

(* The paper's example constraint for the dirpv column:
   inmsg = "data" and dirst = "Busy-d" ? dirpv = zero : dirpv = one *)
let paper_constraint =
  Expr.(
    ternary
      (eq "inmsg" "data" &&& eq "dirst" "Busy-d")
      (eq "dirpv" "zero") (eq "dirpv" "one"))

let test_paper_ternary () =
  let holds r = Expr.eval schema r paper_constraint in
  check "busy-d data needs zero" true (holds (srow "data" "Busy-d" "zero"));
  check "busy-d data rejects one" false (holds (srow "data" "Busy-d" "one"));
  check "otherwise needs one" true (holds (srow "readex" "SI" "one"));
  check "otherwise rejects zero" false (holds (srow "readex" "SI" "zero"))

let test_atoms () =
  let r = srow "readex" "SI" "gone" in
  check "eq" true (Expr.eval schema r (Expr.eq "inmsg" "readex"));
  check "neq" true (Expr.eval schema r (Expr.neq "dirst" "I"));
  check "in" true (Expr.eval schema r (Expr.isin "dirpv" [ "one"; "gone" ]));
  check "not in" false (Expr.eval schema r (Expr.isin "dirpv" [ "one" ]));
  check "null literal" true
    (Expr.eval schema
       (row Value.Null (Value.str "SI") (Value.str "one"))
       (Expr.eq_null "inmsg"))

let test_connectives () =
  let r = srow "wb" "MESI" "one" in
  let t = Expr.eq "inmsg" "wb" and f = Expr.eq "inmsg" "read" in
  check "and" true (Expr.eval schema r Expr.(t &&& t));
  check "and short" false (Expr.eval schema r Expr.(t &&& f));
  check "or" true (Expr.eval schema r Expr.(f ||| t));
  check "not" true (Expr.eval schema r (Expr.Not f));
  check "conj []" true (Expr.eval schema r (Expr.conj []));
  check "disj []" false (Expr.eval schema r (Expr.disj []))

let test_functions () =
  let funcs name =
    if name = "isrequest" then
      Some (fun v -> Value.equal v (Value.str "readex"))
    else None
  in
  let e = Expr.Fn ("isrequest", Expr.Col "inmsg") in
  check "registered fn" true
    (Expr.eval ~funcs schema (srow "readex" "I" "zero") e);
  check "fn false" false (Expr.eval ~funcs schema (srow "data" "I" "zero") e);
  Alcotest.check_raises "unknown fn" (Expr.Unknown_function "isrequest")
    (fun () -> ignore (Expr.eval schema (srow "a" "b" "c") e))

let test_free_columns () =
  Alcotest.(check (list string))
    "free columns in order" [ "inmsg"; "dirst"; "dirpv" ]
    (Expr.free_columns paper_constraint);
  Alcotest.(check (list string)) "no duplicates" [ "inmsg" ]
    (Expr.free_columns Expr.(eq "inmsg" "a" ||| eq "inmsg" "b"))

(* random expressions over the schema *)
let expr_gen =
  let open QCheck.Gen in
  let atom =
    oneof
      [
        return Expr.True;
        return Expr.False;
        map2
          (fun c v -> Expr.eq c v)
          (oneofl [ "inmsg"; "dirst"; "dirpv" ])
          (oneofl [ "readex"; "data"; "SI"; "I"; "one"; "zero" ]);
        map2
          (fun c v -> Expr.neq c v)
          (oneofl [ "inmsg"; "dirst"; "dirpv" ])
          (oneofl [ "readex"; "SI"; "one" ]);
      ]
  in
  sized
  @@ fix (fun self n ->
         if n = 0 then atom
         else
           frequency
             [
               3, atom;
               2, map2 (fun a b -> Expr.And (a, b)) (self (n / 2)) (self (n / 2));
               2, map2 (fun a b -> Expr.Or (a, b)) (self (n / 2)) (self (n / 2));
               1, map (fun a -> Expr.Not a) (self (n / 2));
               1,
                 map3
                   (fun a b c -> Expr.Ternary (a, b, c))
                   (self (n / 3)) (self (n / 3)) (self (n / 3));
             ])

let row_gen =
  QCheck.Gen.(
    map3
      (fun a b c -> srow a b c)
      (oneofl [ "readex"; "data"; "wb" ])
      (oneofl [ "SI"; "I"; "MESI" ])
      (oneofl [ "one"; "zero"; "gone" ]))

let prop_compile_agrees =
  QCheck.Test.make ~count:500
    ~name:"Expr.compile agrees with Expr.eval"
    (QCheck.make
       QCheck.Gen.(pair expr_gen row_gen)
       ~print:(fun (e, _) -> Format.asprintf "%a" Expr.pp e))
    (fun (e, r) -> Expr.compile schema e r = Expr.eval schema r e)

(* --- compile_columns: the dictionary-compiled evaluator ------------- *)

(* Random tables with NULL cells, and expressions that exercise every
   compiled atom: constants absent from the dictionaries ("zz"), NULL
   literals, IN masks, function memo tables, and column-column equality
   (which crosses two dictionaries). *)
let cell_gen =
  QCheck.Gen.(
    frequency
      [
        1, return Value.Null;
        4, map Value.str (oneofl [ "readex"; "data"; "SI"; "I"; "one"; "zero" ]);
      ])

let table_rows_gen =
  QCheck.Gen.(
    list_size (int_range 0 30)
      (map3 (fun a b c -> [| a; b; c |]) cell_gen cell_gen cell_gen))

let columns_funcs name =
  if name = "shortname" then
    Some
      (fun v ->
        (not (Value.equal v Value.Null))
        && String.length (Value.to_string v) <= 2)
  else None

let columns_expr_gen =
  let open QCheck.Gen in
  let cols = oneofl [ "inmsg"; "dirst"; "dirpv" ] in
  let vals =
    oneofl [ "readex"; "data"; "SI"; "I"; "one"; "zero"; "zz" ]
    (* "zz" never occurs in a table: the constant-false compile path *)
  in
  let atom =
    oneof
      [
        return Expr.True;
        return Expr.False;
        map2 Expr.eq cols vals;
        map2 Expr.neq cols vals;
        map Expr.eq_null cols;
        map2 (fun c vs -> Expr.isin c vs) cols (list_size (int_bound 3) vals);
        map (fun c -> Expr.Fn ("shortname", Expr.Col c)) cols;
        map2 (fun a b -> Expr.Eq (Expr.Col a, Expr.Col b)) cols cols;
        map2 (fun a b -> Expr.Neq (Expr.Col a, Expr.Col b)) cols cols;
      ]
  in
  sized
  @@ fix (fun self n ->
         if n = 0 then atom
         else
           frequency
             [
               3, atom;
               2, map2 (fun a b -> Expr.And (a, b)) (self (n / 2)) (self (n / 2));
               2, map2 (fun a b -> Expr.Or (a, b)) (self (n / 2)) (self (n / 2));
               1, map (fun a -> Expr.Not a) (self (n / 2));
               1,
                 map3
                   (fun a b c -> Expr.Ternary (a, b, c))
                   (self (n / 3)) (self (n / 3)) (self (n / 3));
             ])

let prop_compile_columns_agrees =
  QCheck.Test.make ~count:500
    ~name:"Expr.compile_columns agrees with Expr.eval (incl. NULLs)"
    (QCheck.make
       QCheck.Gen.(pair columns_expr_gen table_rows_gen)
       ~print:(fun (e, rows) ->
         Format.asprintf "%a on %d rows" Expr.pp e (List.length rows)))
    (fun (e, rows) ->
      let t = Table.of_rows ~name:"t" schema rows in
      let compiled =
        Expr.compile_columns ~funcs:columns_funcs schema ~dict:(Table.dict t)
          ~codes:(Table.codes t) e
      in
      let ok = ref true in
      List.iteri
        (fun i row ->
          if compiled i <> Expr.eval ~funcs:columns_funcs schema row e then
            ok := false)
        rows;
      !ok)

(* The compiled predicate must also agree on derived tables, whose
   dictionaries are shared with (and can be larger than) the column's
   own value set. *)
let prop_compile_columns_on_derived =
  QCheck.Test.make ~count:200
    ~name:"Expr.compile_columns agrees on selection-derived tables"
    (QCheck.make
       QCheck.Gen.(pair columns_expr_gen table_rows_gen)
       ~print:(fun (e, rows) ->
         Format.asprintf "%a on %d rows" Expr.pp e (List.length rows)))
    (fun (e, rows) ->
      let t = Table.of_rows ~name:"t" schema rows in
      let sub = Oracle.select (Expr.Not (Expr.eq_null "inmsg")) t in
      let compiled =
        Expr.compile_columns ~funcs:columns_funcs schema
          ~dict:(Table.dict sub) ~codes:(Table.codes sub) e
      in
      let ok = ref true in
      List.iteri
        (fun i row ->
          if compiled i <> Expr.eval ~funcs:columns_funcs schema row e then
            ok := false)
        (Table.rows sub);
      !ok)

let prop_ternary_expansion =
  QCheck.Test.make ~count:500
    ~name:"cond ? a : b  ==  (cond and a) or (not cond and b)"
    (QCheck.make QCheck.Gen.(pair (triple expr_gen expr_gen expr_gen) row_gen))
    (fun ((c, a, b), r) ->
      Expr.eval schema r (Expr.Ternary (c, a, b))
      = Expr.eval schema r Expr.(Or (And (c, a), And (Not c, b))))

let suite =
  [
    Alcotest.test_case "paper ternary constraint" `Quick test_paper_ternary;
    Alcotest.test_case "atoms" `Quick test_atoms;
    Alcotest.test_case "connectives" `Quick test_connectives;
    Alcotest.test_case "registered functions" `Quick test_functions;
    Alcotest.test_case "free columns" `Quick test_free_columns;
    Test_seed.to_alcotest prop_compile_agrees;
    Test_seed.to_alcotest prop_compile_columns_agrees;
    Test_seed.to_alcotest prop_compile_columns_on_derived;
    Test_seed.to_alcotest prop_ternary_expansion;
  ]
