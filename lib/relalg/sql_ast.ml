type projection =
  | Star
  | Columns of string list
  | Count
  | Group_count of string list

type order = Asc | Desc

type select = {
  distinct : bool;
  columns : projection;
  from : string;
  where : Expr.t option;
  order_by : (string * order) list;
  limit : int option;
}

type query =
  | Select of select
  | Union of query * query
  | Except of query * query
  | Intersect of query * query

type statement =
  | Query of query
  | Create_table_as of string * query
  | Insert of string * Value.t list list
  | Drop_table of string

let pp_select fmt s =
  Format.fprintf fmt "select %s%s from %s"
    (if s.distinct then "distinct " else "")
    (match s.columns with
    | Star -> "*"
    | Columns cs -> String.concat ", " cs
    | Count -> "COUNT(*)"
    | Group_count cs -> String.concat ", " cs ^ ", COUNT(*)")
    s.from;
  (match s.where with
  | None -> ()
  | Some e -> Format.fprintf fmt " where %a" Expr.pp e);
  (match s.columns with
  | Group_count cs -> Format.fprintf fmt " group by %s" (String.concat ", " cs)
  | Star | Columns _ | Count -> ());
  (match s.order_by with
  | [] -> ()
  | keys ->
      Format.fprintf fmt " order by %s"
        (String.concat ", "
           (List.map
              (fun (col, dir) ->
                col ^ match dir with Asc -> "" | Desc -> " desc")
              keys)));
  match s.limit with
  | None -> ()
  | Some n -> Format.fprintf fmt " limit %d" n

let rec pp_query fmt = function
  | Select s -> pp_select fmt s
  | Union (a, b) -> Format.fprintf fmt "(%a union %a)" pp_query a pp_query b
  | Except (a, b) -> Format.fprintf fmt "(%a except %a)" pp_query a pp_query b
  | Intersect (a, b) ->
      Format.fprintf fmt "(%a intersect %a)" pp_query a pp_query b
