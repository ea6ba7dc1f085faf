type t =
  | Scan of string
  | Select of Expr.t * t
  | Project of string list * t
  | Distinct of t
  | Sort of (string * [ `Asc | `Desc ]) list * t
  | Limit of int * t
  | Union of t * t
  | Except of t * t
  | Intersect of t * t
  | Count of t
  | Group_count of string list * t
  | Empty of string list

let of_query q =
  let rec go (q : Sql_ast.query) =
    match q with
    | Sql_ast.Select { distinct; columns; from; where; order_by; limit } ->
        let dir = function Sql_ast.Asc -> `Asc | Sql_ast.Desc -> `Desc in
        let sort p =
          match order_by with
          | [] -> p
          | keys -> Sort (List.map (fun (c, d) -> (c, dir d)) keys, p)
        in
        let p = Scan from in
        let p = match where with None -> p | Some e -> Select (e, p) in
        (* Plain projections sort below the Project node so ORDER BY may
           use columns the SELECT list drops; aggregates sort above,
           over their output columns. *)
        let p, sorted =
          match columns with
          | Sql_ast.Star -> (sort p, true)
          | Sql_ast.Columns cs -> (Project (cs, sort p), true)
          | Sql_ast.Count -> (Count p, false)
          | Sql_ast.Group_count cols -> (Group_count (cols, p), false)
        in
        let p = if distinct then Distinct p else p in
        let p = if sorted then p else sort p in
        (match limit with None -> p | Some n -> Limit (n, p))
    | Sql_ast.Union (a, b) -> Union (go a, go b)
    | Sql_ast.Except (a, b) -> Except (go a, go b)
    | Sql_ast.Intersect (a, b) -> Intersect (go a, go b)
  in
  go q

(* ------------------------------------------------------------------ *)
(* Predicate simplification                                            *)
(* ------------------------------------------------------------------ *)

let rec simplify_predicate (e : Expr.t) : Expr.t =
  match e with
  | Expr.True | Expr.False | Expr.Fn _ -> e
  | Expr.Eq (Expr.Const a, Expr.Const b) ->
      if Value.equal a b then Expr.True else Expr.False
  | Expr.Neq (Expr.Const a, Expr.Const b) ->
      if Value.equal a b then Expr.False else Expr.True
  | Expr.Cmp (op, Expr.Const a, Expr.Const b) ->
      if Expr.cmp_holds op (Value.order a b) then Expr.True else Expr.False
  | Expr.Eq _ | Expr.Neq _ | Expr.Cmp _ -> e
  | Expr.In (_, []) -> Expr.False
  | Expr.In (Expr.Const a, vs) ->
      if List.exists (Value.equal a) vs then Expr.True else Expr.False
  | Expr.In (x, [ v ]) -> Expr.Eq (x, Expr.Const v)
  | Expr.In _ -> e
  | Expr.And (a, b) -> (
      match simplify_predicate a, simplify_predicate b with
      | Expr.True, x | x, Expr.True -> x
      | Expr.False, _ | _, Expr.False -> Expr.False
      | a, b -> Expr.And (a, b))
  | Expr.Or (a, b) -> (
      match simplify_predicate a, simplify_predicate b with
      | Expr.False, x | x, Expr.False -> x
      | Expr.True, _ | _, Expr.True -> Expr.True
      | a, b -> Expr.Or (a, b))
  | Expr.Not a -> (
      match simplify_predicate a with
      | Expr.True -> Expr.False
      | Expr.False -> Expr.True
      | Expr.Not x -> x
      | a -> Expr.Not a)
  | Expr.Ternary (c, a, b) -> (
      match simplify_predicate c with
      | Expr.True -> simplify_predicate a
      | Expr.False -> simplify_predicate b
      | c -> Expr.Ternary (c, simplify_predicate a, simplify_predicate b))

(* ------------------------------------------------------------------ *)
(* Plan rewriting                                                      *)
(* ------------------------------------------------------------------ *)

let rec rewrite p =
  match p with
  | Scan _ | Empty _ -> p
  | Select (e, inner) -> (
      let e = simplify_predicate e in
      let inner = rewrite inner in
      match e, inner with
      | Expr.True, _ -> inner
      | Expr.False, _ -> (
          (* collapse only when the schema is statically known; a bare
             scan's schema lives in the database, so keep the (cheap)
             never-true selection there *)
          match schema_hint inner with
          | Some cols -> Empty cols
          | None -> Select (Expr.False, inner))
      | _, Empty cols -> Empty cols
      (* merge adjacent selections *)
      | _, Select (e', deeper) -> Select (Expr.And (e, e'), deeper)
      (* push the selection below a projection: legal because the
         predicate can only mention projected columns *)
      | _, Project (cols, deeper) -> Project (cols, rewrite (Select (e, deeper)))
      (* push through set operators *)
      | _, Union (a, b) -> Union (rewrite (Select (e, a)), rewrite (Select (e, b)))
      | _, Except (a, b) -> Except (rewrite (Select (e, a)), rewrite (Select (e, b)))
      | _, Intersect (a, b) ->
          Intersect (rewrite (Select (e, a)), rewrite (Select (e, b)))
      | _ -> Select (e, inner))
  | Project (cols, inner) -> (
      match rewrite inner with
      | Empty _ -> Empty cols
      (* collapse nested projections to the outermost *)
      | Project (_, deeper) -> Project (cols, deeper)
      | inner -> Project (cols, inner))
  | Distinct inner -> (
      match rewrite inner with
      | Empty cols -> Empty cols
      | Distinct deeper -> Distinct deeper
      | inner -> Distinct inner)
  | Sort (keys, inner) -> (
      match rewrite inner with
      | Empty cols -> Empty cols
      | inner -> Sort (keys, inner))
  | Limit (n, inner) -> (
      match rewrite inner, schema_hint inner with
      | Empty cols, _ -> Empty cols
      | _, Some cols when n = 0 -> Empty cols
      | inner, _ -> Limit (n, inner))
  | Count inner -> Count (rewrite inner)
  | Group_count (cols, inner) -> Group_count (cols, rewrite inner)
  | Union (a, b) -> (
      match rewrite a, rewrite b with
      (* set operators produce distinct results; Empty is the unit *)
      | Empty _, x | x, Empty _ -> Distinct x
      | a, b -> Union (a, b))
  | Except (a, b) -> (
      match rewrite a, rewrite b with
      | Empty cols, _ -> Empty cols
      | a, Empty _ -> Distinct a
      | a, b -> Except (a, b))
  | Intersect (a, b) -> (
      match rewrite a, rewrite b with
      | Empty cols, _ -> Empty cols
      | _, Empty cols -> Empty cols
      | a, b -> Intersect (a, b))

and schema_hint = function
  | Project (cols, _) | Empty cols -> Some cols
  | Scan _ -> None
  | Select (_, p) | Distinct p | Sort (_, p) | Limit (_, p) -> schema_hint p
  | Union (a, b) | Except (a, b) | Intersect (a, b) -> (
      match schema_hint a with Some c -> Some c | None -> schema_hint b)
  | Count _ -> Some [ "count" ]
  | Group_count (cols, _) -> Some (cols @ [ "count" ])

let rec optimize p =
  let p' = rewrite p in
  if p' = p then p else optimize p'

(* ------------------------------------------------------------------ *)
(* Evaluation                                                          *)
(* ------------------------------------------------------------------ *)

let rec execute db p =
  match p with
  | Scan name -> Database.find db name
  | Select (e, inner) ->
      Ops.select ~funcs:(Database.functions db) e (execute db inner)
  | Project (cols, inner) -> Table.project cols (execute db inner)
  | Distinct inner -> Table.distinct (execute db inner)
  | Sort (keys, inner) -> Ops.order_by keys (execute db inner)
  | Limit (n, inner) -> Ops.limit n (execute db inner)
  | Count inner ->
      Table.of_rows ~name:"<count>"
        (Schema.of_list [ "count" ])
        [ [| Value.Int (Table.cardinality (execute db inner)) |] ]
  | Group_count (cols, inner) ->
      Table.of_rows ~name:"<group>"
        (Schema.of_list (cols @ [ "count" ]))
        (List.map
           (fun (key, n) -> Array.append key [| Value.Int n |])
           (Ops.group_count ~by:cols (execute db inner)))
  | Union (a, b) -> Ops.union (execute db a) (execute db b)
  | Except (a, b) -> Ops.except (execute db a) (execute db b)
  | Intersect (a, b) -> Ops.intersect (execute db a) (execute db b)
  | Empty cols -> Table.create ~name:"<empty>" (Schema.of_list cols)

let explain p =
  let buf = Buffer.create 256 in
  let rec go indent p =
    let pr fmt = Printf.ksprintf (fun s ->
        Buffer.add_string buf (String.make indent ' ');
        Buffer.add_string buf s;
        Buffer.add_char buf '\n') fmt
    in
    match p with
    | Scan name -> pr "scan %s" name
    | Select (e, inner) ->
        pr "select %s" (Format.asprintf "%a" Expr.pp e);
        go (indent + 2) inner
    | Project (cols, inner) ->
        pr "project [%s]" (String.concat ", " cols);
        go (indent + 2) inner
    | Distinct inner -> pr "distinct"; go (indent + 2) inner
    | Sort (keys, inner) ->
        pr "sort [%s]"
          (String.concat ", "
             (List.map
                (fun (c, d) ->
                  c ^ match d with `Asc -> "" | `Desc -> " desc")
                keys));
        go (indent + 2) inner
    | Limit (n, inner) -> pr "limit %d" n; go (indent + 2) inner
    | Count inner -> pr "count"; go (indent + 2) inner
    | Group_count (cols, inner) ->
        pr "group count by [%s]" (String.concat ", " cols);
        go (indent + 2) inner
    | Union (a, b) -> pr "union"; go (indent + 2) a; go (indent + 2) b
    | Except (a, b) -> pr "except"; go (indent + 2) a; go (indent + 2) b
    | Intersect (a, b) -> pr "intersect"; go (indent + 2) a; go (indent + 2) b
    | Empty cols -> pr "empty [%s]" (String.concat ", " cols)
  in
  go 0 p;
  Buffer.contents buf

let optimize_to_fixpoint = optimize

let run ?(optimize = true) db src =
  let plan = of_query (Sql_parser.parse_query src) in
  let plan = if optimize then optimize_to_fixpoint plan else plan in
  execute db plan
