(* Cost-based planning: annotate a logical {!Plan.t} with cardinality
   estimates from per-column dictionary sizes and table row counts, pick
   physical operators (top-k instead of sort-then-limit, index lookups
   on declared indexes), and execute through the vectorized {!Batch}
   layer.  Joins are not SQL: code that joins tables calls the
   programmatic {!equi_join}, which picks the hash-join build side.
   The row-at-a-time reference engine ({!Oracle}) is for the
   differential tests only; nothing here calls it. *)

(* ASURA_PLAN_BUILD=left|right overrides {!equi_join}'s build-side
   choice.  This is the deterministic "planted plan regression" knob:
   the structural fingerprint covers the build side, so flipping it is
   exactly what `asura plan diff --strict` and the CI plan gate must
   catch.  Read dynamically.  The empty string reads as unset; any
   other value is malformed, which the CLI refuses ({!env_invalid})
   rather than silently running the planner's own choice. *)
let parse_build_side = function
  | "left" | "LEFT" | "l" -> Some (Some true)
  | "right" | "RIGHT" | "r" -> Some (Some false)
  | "" -> Some None
  | _ -> None

let forced_build_side () =
  Option.join (Option.bind (Sys.getenv_opt "ASURA_PLAN_BUILD") parse_build_side)

let env_invalid () =
  match Sys.getenv_opt "ASURA_PLAN_BUILD" with
  | Some v when parse_build_side v = None -> Some v
  | _ -> None

(* ------------------------- annotated plans ---------------------------- *)

type keys = (string * [ `Asc | `Desc ]) list

type op =
  | Scan of string
  | Index_scan of { table : string; column : string; value : Value.t }
  | Filter of Expr.t
  | Project of string list
  | Distinct
  | Sort of keys
  | Topk of int * keys
  | Limit of int
  | Hash_join of { on : (string * string) list; build_left : bool }
  | Union
  | Except
  | Intersect
  | Count
  | Group of string list
  | Nothing of string list

type t = {
  op : op;
  est : float;  (* estimated output rows *)
  cost : float;  (* cumulative cost estimate, in abstract row-touches *)
  mutable actual : int;  (* output rows observed by execution; -1 before *)
  mutable ns : int64;  (* wall time at this node, inclusive of children *)
  mutable batches : int;  (* batches pulled through (streaming nodes) *)
  children : t list;
}

(* --------------------------- statistics ------------------------------- *)

(* Estimated row count plus per-column number of distinct values.  Base
   ndv comes straight from the columnar storage: every column's
   dictionary size is an exact distinct count of the values ever
   interned, capped by the current cardinality. *)
type stats = { rows : float; cols : string list; ndv : (string * float) list }

(* [Stdlib.min]/[max] specialised to floats: same results, without the
   polymorphic compare on every column of every scan. *)
let fmin (a : float) b = if a <= b then a else b
let fmax (a : float) b = if a >= b then a else b

let ndv_of st c =
  match List.assoc_opt c st.ndv with
  | Some n -> fmax 1. n
  | None -> fmax 1. (fmin st.rows 16.)

(* Cap every ndv by a new (smaller) row estimate. *)
let restrict st rows =
  let rows = fmax 0. rows in
  let cap = fmax 1. rows in
  { st with rows; ndv = List.map (fun (c, n) -> (c, fmin n cap)) st.ndv }

let table_stats t =
  let rows = float_of_int (Table.cardinality t) in
  let cols = Schema.columns (Table.schema t) in
  let cap = fmax 1. rows in
  let ndv =
    List.mapi
      (fun j c -> (c, fmin cap (float_of_int (Dict.size (Table.dict t j)))))
      cols
  in
  { rows; cols; ndv }

let scan_stats db name = table_stats (Database.find db name)

(* Textbook selectivities over dictionary ndv: equality selects 1/ndv,
   range predicates a third, IN k values k/ndv, registered functions an
   uninformed half; connectives assume independence. *)
let rec selectivity st (e : Expr.t) =
  match e with
  | Expr.True -> 1.
  | Expr.False -> 0.
  | Expr.Eq (Expr.Col c, Expr.Const _) | Expr.Eq (Expr.Const _, Expr.Col c) ->
      1. /. ndv_of st c
  | Expr.Eq (Expr.Col a, Expr.Col b) -> 1. /. max (ndv_of st a) (ndv_of st b)
  | Expr.Eq (Expr.Const _, Expr.Const _) -> 0.5
  | Expr.Neq (a, b) -> 1. -. selectivity st (Expr.Eq (a, b))
  | Expr.Cmp _ -> 1. /. 3.
  | Expr.In (Expr.Col c, vs) ->
      min 1. (float_of_int (List.length vs) /. ndv_of st c)
  | Expr.In _ -> 0.5
  | Expr.Fn _ -> 0.5
  | Expr.And (a, b) -> selectivity st a *. selectivity st b
  | Expr.Or (a, b) ->
      let sa = selectivity st a and sb = selectivity st b in
      sa +. sb -. (sa *. sb)
  | Expr.Not a -> 1. -. selectivity st a
  | Expr.Ternary (c, a, b) ->
      let sc = selectivity st c in
      (sc *. selectivity st a) +. ((1. -. sc) *. selectivity st b)

(* Estimated distinct rows over [cols]: product of per-column ndv,
   capped by the row count. *)
let distinct_est st cols =
  min st.rows (List.fold_left (fun acc c -> acc *. ndv_of st c) 1. cols)

let nlogn n = n *. (log (max 2. n) /. log 2.)

(* ------------------------ planner rewrites ---------------------------- *)

let rec conjuncts = function
  | Expr.And (a, b) -> conjuncts a @ conjuncts b
  | e -> [ e ]

(* The first [col = literal] conjunct on an indexed column, and the
   remaining conjuncts in their original order. *)
let split_indexable indexed pred =
  let rec go seen = function
    | [] -> None
    | (Expr.Eq (Expr.Col c, Expr.Const v) | Expr.Eq (Expr.Const v, Expr.Col c))
      :: rest
      when List.mem c indexed ->
        Some (c, v, List.rev_append seen rest)
    | e :: rest -> go (e :: seen) rest
  in
  go [] (conjuncts pred)

(* ---------------------------- annotation ------------------------------ *)

let node op est cost children =
  { op; est; cost; actual = -1; ns = 0L; batches = 0; children }

let filter_node e (c, st) =
  let rows = st.rows *. selectivity st (Plan.simplify_predicate e) in
  (node (Filter e) rows (c.cost +. st.rows) [ c ], restrict st rows)

(* A hash-index lookup of [column = value] over a table with stats [st],
   estimated at rows / ndv(column). *)
let index_leaf st ~table ~column value =
  let rows = st.rows /. ndv_of st column in
  let st = restrict st rows in
  let st = { st with ndv = (column, 1.) :: List.remove_assoc column st.ndv } in
  (node (Index_scan { table; column; value }) rows rows [], st)

(* A set operator over two annotated inputs: a union is estimated at
   the distinct rows of both, an except at the left's distinct rows
   less the right's (containment: the smaller side's distinct rows are
   among the larger's), an intersect at half the smaller side's. *)
let set_node op (ca, sta) (cb, stb) =
  let cost = ca.cost +. cb.cost +. sta.rows +. stb.rows in
  match op with
  | Union ->
      let merged =
        {
          rows = sta.rows +. stb.rows;
          cols = sta.cols;
          ndv = List.map (fun (c, n) -> (c, max n (ndv_of stb c))) sta.ndv;
        }
      in
      let rows = distinct_est merged merged.cols in
      (node Union rows cost [ ca; cb ], restrict merged rows)
  | Except ->
      let rows =
        fmax 0. (distinct_est sta sta.cols -. distinct_est stb stb.cols)
      in
      (node Except rows cost [ ca; cb ], restrict sta rows)
  | _ ->
      let rows =
        min (distinct_est sta sta.cols) (distinct_est stb stb.cols) *. 0.5
      in
      (node op rows cost [ ca; cb ], restrict sta rows)

(* [indexes] lists the (table, column) pairs that carry a hash index: a
   selection directly over a scan of such a table with a [col = literal]
   conjunct on an indexed column reads only the matching rows through
   {!Index.cached}, estimated at rows / ndv(col); the other conjuncts
   stay in a filter above it.  With no indexes declared nothing here
   changes, so neither plans, estimates nor fingerprints move. *)
let rec annotate ~indexes db (p : Plan.t) : t * stats =
  let annotate = annotate ~indexes in
  match p with
  | Plan.Scan name ->
      let st = scan_stats db name in
      (node (Scan name) st.rows st.rows [], st)
  | Plan.Select (e, (Plan.Scan name as scan)) -> (
      let indexed =
        List.filter_map
          (fun (t, c) -> if String.equal t name then Some c else None)
          indexes
      in
      match split_indexable indexed e with
      | None -> filter_node e (annotate db scan)
      | Some (column, value, residual) -> (
          let leaf = index_leaf (scan_stats db name) ~table:name ~column value in
          match residual with
          | [] -> leaf
          | es -> filter_node (Expr.conj es) leaf))
  | Plan.Select (e, inner) -> filter_node e (annotate db inner)
  | Plan.Project (cols, inner) ->
      let c, st = annotate db inner in
      let st =
        { st with cols; ndv = List.filter (fun (c, _) -> List.mem c cols) st.ndv }
      in
      (* zero-copy column aliasing: no per-row cost *)
      (node (Project cols) st.rows c.cost [ c ], st)
  | Plan.Distinct inner ->
      let c, st = annotate db inner in
      let rows = distinct_est st st.cols in
      (node Distinct rows (c.cost +. st.rows) [ c ], restrict st rows)
  (* LIMIT over ORDER BY (with or without an intervening projection,
     which preserves order) is a top-k: keep a bounded buffer of the k
     least rows instead of sorting everything. *)
  | Plan.Limit (n, Plan.Sort (keys, inner)) ->
      let c, st = annotate db inner in
      let rows = min st.rows (float_of_int n) in
      ( node (Topk (n, keys))
          rows
          (c.cost +. (st.rows *. (log (max 2. (float_of_int n)) /. log 2.)))
          [ c ],
        restrict st rows )
  | Plan.Limit (n, Plan.Project (cols, Plan.Sort (keys, inner))) ->
      let topk, st = annotate db (Plan.Limit (n, Plan.Sort (keys, inner))) in
      let st =
        { st with cols; ndv = List.filter (fun (c, _) -> List.mem c cols) st.ndv }
      in
      (node (Project cols) st.rows topk.cost [ topk ], st)
  | Plan.Sort (keys, inner) ->
      let c, st = annotate db inner in
      (node (Sort keys) st.rows (c.cost +. nlogn st.rows) [ c ], st)
  | Plan.Limit (n, inner) ->
      let c, st = annotate db inner in
      let rows = min st.rows (float_of_int n) in
      (node (Limit n) rows (c.cost +. rows) [ c ], restrict st rows)
  | Plan.Count inner ->
      let c, st = annotate db inner in
      ( node Count 1. (c.cost +. st.rows) [ c ],
        { rows = 1.; cols = [ "count" ]; ndv = [ ("count", 1.) ] } )
  | Plan.Group_count (cols, inner) ->
      let c, st = annotate db inner in
      let rows = distinct_est st cols in
      let ndv =
        List.map (fun g -> (g, min rows (ndv_of st g))) cols
        @ [ ("count", rows) ]
      in
      ( node (Group cols) rows (c.cost +. st.rows) [ c ],
        { rows; cols = cols @ [ "count" ]; ndv } )
  | Plan.Union (a, b) -> set_node Union (annotate db a) (annotate db b)
  | Plan.Except (a, b) -> set_node Except (annotate db a) (annotate db b)
  | Plan.Intersect (a, b) ->
      set_node Intersect (annotate db a) (annotate db b)
  | Plan.Empty cols ->
      ( node (Nothing cols) 0. 0. [],
        { rows = 0.; cols; ndv = List.map (fun c -> (c, 1.)) cols } )

let plan ?(indexes = []) db (p : Plan.t) : t =
  fst (annotate ~indexes db (Plan.optimize p))

(* ---------------------------- fingerprint ----------------------------- *)

(* Canonical per-node strings hashed into the structural plan
   fingerprint.  Column references are rewritten to positional indices
   into the node's input columns, so renaming columns leaves the
   fingerprint unchanged; a filter's conjuncts are canonicalized
   individually and sorted, so predicate order doesn't matter; build
   side, top-k recognition and pushdown placement all appear in the
   node strings, so every physical decision does. *)

let index_of c cols =
  let rec go i = function
    | [] -> None
    | x :: _ when String.equal x c -> Some i
    | _ :: rest -> go (i + 1) rest
  in
  go 0 cols

let col_ref cols c =
  match index_of c cols with
  | Some i -> "#" ^ string_of_int i
  | None -> c (* unresolvable column: keep the name, still deterministic *)

let canon_operand cols = function
  | Expr.Col c -> col_ref cols c
  | Expr.Const v -> Value.to_sql v

(* Equality and inequality are commutative: normalize by sorting the
   rendered operands, so [a = b] and [b = a] fingerprint identically. *)
let rec canon_expr cols (e : Expr.t) =
  let opnd = canon_operand cols in
  let commut tag a b =
    let a = opnd a and b = opnd b in
    let a, b = if String.compare a b <= 0 then (a, b) else (b, a) in
    Printf.sprintf "%s(%s,%s)" tag a b
  in
  match e with
  | Expr.True -> "t"
  | Expr.False -> "f"
  | Expr.Eq (a, b) -> commut "eq" a b
  | Expr.Neq (a, b) -> commut "ne" a b
  | Expr.Cmp (c, a, b) ->
      Printf.sprintf "%s(%s,%s)" (Expr.cmp_to_string c) (opnd a) (opnd b)
  | Expr.In (a, vs) ->
      Printf.sprintf "in(%s,[%s])" (opnd a)
        (String.concat ";" (List.sort compare (List.map Value.to_sql vs)))
  | Expr.Fn (f, a) -> Printf.sprintf "fn:%s(%s)" f (opnd a)
  | Expr.And (a, b) -> conj_string cols (Expr.And (a, b))
  | Expr.Or (a, b) ->
      Printf.sprintf "or(%s)"
        (String.concat ","
           (List.sort compare [ canon_expr cols a; canon_expr cols b ]))
  | Expr.Not a -> Printf.sprintf "not(%s)" (canon_expr cols a)
  | Expr.Ternary (c, a, b) ->
      Printf.sprintf "if(%s,%s,%s)" (canon_expr cols c) (canon_expr cols a)
        (canon_expr cols b)

(* Flattened conjunct list, canonicalized then sorted: AND is
   commutative and associative, and {!Plan.optimize} merges adjacent
   selections in whatever order it meets them. *)
and conj_string cols e =
  match conjuncts e with
  | [ single ] -> canon_expr cols single
  | cs ->
      Printf.sprintf "and(%s)"
        (String.concat "," (List.sort compare (List.map (canon_expr cols) cs)))

let canon_keys cols keys =
  String.concat ","
    (List.map
       (fun (c, d) ->
         col_ref cols c ^ match d with `Asc -> "" | `Desc -> " desc")
       keys)

(* Pre-order canonical strings plus the node's output columns.  The scan
   schema comes through [lookup] so programmatic plans (whose inputs are
   tables, not database names) fingerprint with the same machinery. *)
let rec canon lookup n =
  let child () =
    match n.children with
    | [ c ] -> canon lookup c
    | _ -> invalid_arg "Planner.canon: arity"
  in
  let two () =
    match n.children with
    | [ a; b ] -> (canon lookup a, canon lookup b)
    | _ -> invalid_arg "Planner.canon: arity"
  in
  match n.op with
  | Scan name ->
      ([ "scan:" ^ name ], Option.value ~default:[] (lookup name))
  | Index_scan { table; column; value } ->
      let cols = Option.value ~default:[] (lookup table) in
      ( [ Printf.sprintf "index:%s:%s=%s" table (col_ref cols column)
            (Value.to_sql value) ],
        cols )
  | Filter e ->
      let parts, cols = child () in
      (("filter:" ^ conj_string cols e) :: parts, cols)
  | Project cs ->
      let parts, cols = child () in
      ( Printf.sprintf "project:[%s]"
          (String.concat "," (List.map (col_ref cols) cs))
        :: parts,
        cs )
  | Distinct ->
      let parts, cols = child () in
      ("distinct" :: parts, cols)
  | Sort keys ->
      let parts, cols = child () in
      (Printf.sprintf "sort:[%s]" (canon_keys cols keys) :: parts, cols)
  | Topk (k, keys) ->
      let parts, cols = child () in
      ( Printf.sprintf "topk:%d:[%s]" k (canon_keys cols keys) :: parts,
        cols )
  | Limit k ->
      let parts, cols = child () in
      (Printf.sprintf "limit:%d" k :: parts, cols)
  | Hash_join { on; build_left } ->
      let (pa, ca), (pb, cb) = two () in
      let keys = List.map snd on in
      let out = ca @ List.filter (fun c -> not (List.mem c keys)) cb in
      ( Printf.sprintf "hashjoin:[%s]:build=%s"
          (String.concat ","
             (List.map
                (fun (l, r) -> col_ref ca l ^ "=" ^ col_ref cb r)
                on))
          (if build_left then "L" else "R")
        :: (pa @ pb),
        out )
  | Union ->
      let (pa, ca), (pb, _) = two () in
      (("union" :: pa) @ pb, ca)
  | Except ->
      let (pa, ca), (pb, _) = two () in
      (("except" :: pa) @ pb, ca)
  | Intersect ->
      let (pa, ca), (pb, _) = two () in
      (("intersect" :: pa) @ pb, ca)
  | Count ->
      let parts, _ = child () in
      ("count" :: parts, [ "count" ])
  | Group cs ->
      let parts, cols = child () in
      ( Printf.sprintf "group:[%s]"
          (String.concat "," (List.map (col_ref cols) cs))
        :: parts,
        cs @ [ "count" ] )
  | Nothing cs ->
      ([ Printf.sprintf "empty:%d" (List.length cs) ], cs)

let fingerprint_with lookup root = Obs.Planlog.fingerprint (fst (canon lookup root))

let db_lookup db name =
  Option.map
    (fun t -> Schema.columns (Table.schema t))
    (Database.find_opt db name)

let fingerprint db root = fingerprint_with (db_lookup db) root

(* ---------------------------- execution ------------------------------- *)

(* Streaming nodes compose {!Batch} sources, tapped so [actual] counts
   accumulate per operator and timed per pull so [ns]/[batches] fill in;
   blocking nodes materialize tables (their [actual] is the result
   cardinality, their [ns] the wall time of the whole materialization)
   and re-enter the stream via {!Batch.of_table}.  All [ns] figures are
   inclusive of children, matching the plan-observatory convention. *)
let timed n (src : Batch.source) =
  Batch.timed
    (fun ns b ->
      n.ns <- Int64.add n.ns ns;
      if b >= 0 then n.batches <- n.batches + 1)
    src

let observed n src =
  n.actual <- 0;
  timed n (Batch.tap (fun b -> n.actual <- n.actual + b) src)

let streaming n =
  match n.op with Filter _ | Project _ | Limit _ -> true | _ -> false

(* [keep], when given, names the only columns the consumer reads: a
   filter gathers just those, so [Project (cols, Filter …)] is one
   select that never copies the columns the projection drops. *)
let rec source_of ?keep db (n : t) : Batch.source =
  match (n.op, n.children) with
  | Scan name, [] ->
      let t = Database.find db name in
      n.actual <- Table.cardinality t;
      timed n (Batch.of_table t)
  | Filter e, [ c ] ->
      observed n
        (Batch.select ~funcs:(Database.functions db) ?keep e (source_of db c))
  | Project cols, [ c ] ->
      observed n (Batch.project cols (source_of ~keep:cols db c))
  | Limit k, [ c ] -> observed n (Batch.limit k (source_of ?keep db c))
  | _ -> Batch.of_table (execute db n)

and execute db (n : t) : Table.t =
  let t0 = Obs.Clock.now_ns () in
  let record t =
    n.actual <- Table.cardinality t;
    n.ns <- Obs.Clock.since t0;
    t
  in
  match (n.op, n.children) with
  | Scan name, [] -> record (Database.find db name)
  | Index_scan { table; column; value }, [] ->
      (* returned as gathered, never drained through a batch stream *)
      record
        (Index.lookup_gather
           (Index.cached (Database.find db table) column)
           value)
  | (Filter _ | Project _ | Limit _), _ -> record (drain db n)
  | Distinct, [ c ] ->
      record (dedup db c (Batch.distinct_table ~name:"<distinct>"))
  | Sort keys, [ c ] ->
      record (Batch.sort_table ~name:"<sort>" keys (source_of db c))
  | Topk (k, keys), [ c ] ->
      record (Batch.topk_table ~name:"<topk>" k keys (source_of db c))
  | Group cols, [ c ] -> record (dedup db c (Batch.group_table ~by:cols))
  | Count, [ c ] ->
      record
        (Table.of_rows ~name:"<count>"
           (Schema.of_list [ "count" ])
           [ [| Value.Int (Batch.count (source_of ~keep:[] db c)) |] ])
  | Union, [ a; b ] -> record (Batch.union (execute db a) (execute db b))
  | Except, [ a; b ] -> record (Batch.except (execute db a) (execute db b))
  | Intersect, [ a; b ] ->
      record (Batch.intersect (execute db a) (execute db b))
  | Nothing cols, [] ->
      record (Table.create ~name:"<empty>" (Schema.of_list cols))
  | _ -> invalid_arg "Planner.execute: malformed plan"

(* [Limit? (Project? (Filter? below))] with a materialized [below]: the
   chain the executor runs on one selection vector over [below]'s table.
   [run ~funcs ?where ?keep ?limit input] takes the peeled predicate,
   columns and limit and returns the result with the rows that passed
   the filter.  Each peeled node is filled in as the single borrowed batch
   would have filled it.  [None] when a streaming node sits lower. *)
and on_selection db n
    (run :
      ?funcs:Expr.funcs -> ?where:Expr.t -> ?keep:string list -> ?limit:int ->
      Table.t -> Table.t * int) =
  let limit, p =
    match (n.op, n.children) with
    | Limit k, [ c ] when k > 0 -> (Some k, c)
    | _ -> (None, n)
  in
  let keep, f =
    match (p.op, p.children) with
    | Project cols, [ c ] -> (Some cols, c)
    | _ -> (None, p)
  in
  let where, below =
    match (f.op, f.children) with
    | Filter e, [ c ] -> (Some e, c)
    | _ -> (None, f)
  in
  if streaming below then None
  else begin
    let t0 = Obs.Clock.now_ns () in
    let input = execute db below in
    (match below.op with Scan _ -> below.batches <- 1 | _ -> ());
    let out, survivors =
      run ~funcs:(Database.functions db) ?where ?keep ?limit input
    in
    let ns = Obs.Clock.since t0 in
    let rec fill node =
      if node != below then begin
        node.actual <-
          (match node.op with Limit k -> min k survivors | _ -> survivors);
        node.ns <- ns;
        node.batches <- 1;
        List.iter fill node.children
      end
    in
    fill n;
    Some out
  end

(* A streaming chain asked to produce a table: a filter, projection and
   limit over a materialized input are one {!Batch.select_table} that
   gathers only the kept columns and rows, at exactly their size.  Any
   other chain streams into an output-sized drain. *)
and drain db n =
  match on_selection db n (Batch.select_table ~name:"<batch>") with
  | Some t -> t
  | None -> Batch.to_table ~name:"<batch>" (source_of db n)

(* DISTINCT or GROUP BY over [c]: over a chain on a materialized input
   the dedup reads the filter's selection vector, otherwise every row of
   [c]'s table. *)
and dedup db c run =
  match on_selection db c run with
  | Some t -> t
  | None -> fst (run ~funcs:(Database.functions db) (execute db c))

(* --------------------------- rendering -------------------------------- *)

let op_string = function
  | Scan name -> "seq scan " ^ name
  | Index_scan { table; column; value } ->
      Printf.sprintf "index lookup %s.%s = %s" table column (Value.to_sql value)
  | Filter e -> Format.asprintf "filter %a" Expr.pp e
  | Project cols -> Printf.sprintf "project [%s]" (String.concat ", " cols)
  | Distinct -> "distinct"
  | Sort keys | Topk (_, keys) as op ->
      let ks =
        String.concat ", "
          (List.map
             (fun (c, d) -> c ^ match d with `Asc -> "" | `Desc -> " desc")
             keys)
      in
      (match op with
      | Topk (k, _) -> Printf.sprintf "top-k %d [%s]" k ks
      | _ -> Printf.sprintf "sort [%s]" ks)
  | Limit n -> Printf.sprintf "limit %d" n
  | Hash_join { on; build_left } ->
      Printf.sprintf "hash join [%s] (build=%s)"
        (String.concat ", "
           (List.map (fun (l, r) -> Printf.sprintf "%s=%s" l r) on))
        (if build_left then "left" else "right")
  | Union -> "union"
  | Except -> "except"
  | Intersect -> "intersect"
  | Count -> "count"
  | Group cols ->
      Printf.sprintf "group count by [%s]" (String.concat ", " cols)
  | Nothing cols -> Printf.sprintf "empty [%s]" (String.concat ", " cols)

let render root =
  let buf = Buffer.create 256 in
  let rec go indent n =
    Printf.ksprintf (Buffer.add_string buf) "%s%-*s est=%-9.0f %s cost=%.0f\n"
      (String.make indent ' ')
      (max 1 (40 - indent))
      (op_string n.op) n.est
      (if n.actual < 0 then "actual=-     "
       else Printf.sprintf "actual=%-6d" n.actual)
      n.cost;
    List.iter (go (indent + 2)) n.children
  in
  go 0 root;
  Buffer.contents buf

let explain db src =
  render (plan db (Plan.of_query (Sql_parser.parse_query src)))

(* ------------------------- plan observatory --------------------------- *)

(* Pre-order per-operator telemetry handed to the {!Obs.Planlog}
   collector; [actual_ns] is inclusive of children, as measured. *)
let rec planlog_ops n =
  {
    Obs.Planlog.op = op_string n.op;
    est_rows = n.est;
    est_cost = n.cost;
    actual_rows = max 0 n.actual;
    actual_ns = Int64.to_float n.ns;
    batches = n.batches;
  }
  :: List.concat_map planlog_ops n.children

(* The plan-diff key is (site, query), so the label must identify the
   *logical* workload: it deliberately omits physical choices (build
   side) the fingerprint tracks — otherwise a plan change would report
   as removed+added instead of changed. *)
let label_of root =
  match root.op with
  | Hash_join { on; _ } ->
      Printf.sprintf "join [%s]"
        (String.concat ", "
           (List.map (fun (l, r) -> Printf.sprintf "%s=%s" l r) on))
  | op -> op_string op

let observe_with ~query ~fingerprint root total_ns rows_out =
  Obs.Planlog.record ~fingerprint ~query ~est_cost:root.cost
    ~total_ns:(Int64.to_float total_ns)
    ~rows_out (planlog_ops root)

let observe ?query ~lookup root total_ns rows_out =
  if Obs.Config.on () then
    let query = match query with Some q -> q | None -> label_of root in
    observe_with ~query ~fingerprint:(fingerprint_with lookup root) root
      total_ns rows_out

(* A query planned once and executed many times.  Execution writes
   [actual]/[ns]/[batches] into the tree, so every run executes a fresh
   copy of [template] and concurrent runs never share counters.  The
   fingerprint depends only on the tree and the scanned schemas, so it
   is computed at the first observed run and reused. *)
type prepared = {
  query : Sql_ast.query;
  template : t;
  mutable fp : string option;
}

let prepare db q = { query = q; template = plan db (Plan.of_query q); fp = None }

let rec fresh n =
  { n with actual = -1; ns = 0L; batches = 0; children = List.map fresh n.children }

let run_prepared ?label db p =
  let root = fresh p.template in
  let t0 = Obs.Clock.now_ns () in
  let t = execute db root in
  (if Obs.Config.on () then
     let fingerprint =
       match p.fp with
       | Some f -> f
       | None ->
           let f = fingerprint db root in
           p.fp <- Some f;
           f
     in
     let query =
       match label with
       | Some l -> l
       | None -> Format.asprintf "%a" Sql_ast.pp_query p.query
     in
     observe_with ~query ~fingerprint root (Obs.Clock.since t0)
       (Table.cardinality t));
  Table.with_name "<query>" t


(* -------------------------- EXPLAIN ANALYZE --------------------------- *)

type report = {
  table : Table.t;
  root : t;
  total_ns : int64;
  fingerprint : string;
}

let analyze ?indexes db src =
  Obs.Trace.with_span ~cat:"relalg"
    ~args:[ ("query", Obs.Json.Str src) ]
    "sql.planner_analyze"
  @@ fun () ->
  let t0 = Obs.Clock.now_ns () in
  let root = plan ?indexes db (Plan.of_query (Sql_parser.parse_query src)) in
  let table = Table.with_name "<query>" (execute db root) in
  let total_ns = Obs.Clock.since t0 in
  observe ~query:src ~lookup:(db_lookup db) root total_ns
    (Table.cardinality table);
  { table; root; total_ns; fingerprint = fingerprint db root }

let render_report r =
  Printf.sprintf "%stotal: %.3f ms, %d rows\n" (render r.root)
    (Obs.Clock.to_ms r.total_ns)
    (Table.cardinality r.table)

(* Per-node misestimation: symmetric 1-smoothed ratio between estimated
   and actual output rows (>= 1.0; 1.0 = perfect), same definition as
   {!Obs.Planlog.misest} applies per operator. *)
let node_misest n =
  let actual = float_of_int (max 0 n.actual) in
  let est = max 0. n.est in
  (max actual est +. 1.) /. (min actual est +. 1.)

let rec node_to_json n =
  Obs.Json.Obj
    [
      ("op", Obs.Json.Str (op_string n.op));
      ("est_rows", Obs.Json.Float n.est);
      ("actual_rows", Obs.Json.Int n.actual);
      ("misest", Obs.Json.Float (node_misest n));
      ("cost", Obs.Json.Float n.cost);
      ("actual_ms", Obs.Json.Float (Int64.to_float n.ns /. 1e6));
      ("batches", Obs.Json.Int n.batches);
      ("children", Obs.Json.List (List.map node_to_json n.children));
    ]

(* asura-explain/2: the rendered plan, its fingerprint, and the
   est-vs-actual operator tree (compat note in DESIGN.md §13). *)
let to_json r =
  Obs.Json.Obj
    [
      ("schema", Obs.Json.Str "asura-explain/2");
      ("fingerprint", Obs.Json.Str r.fingerprint);
      ("rows", Obs.Json.Int (Table.cardinality r.table));
      ("total_ns", Obs.Json.Float (Int64.to_float r.total_ns));
      ("physical", Obs.Json.Str (render r.root));
      ("plan", node_to_json r.root);
    ]

(* ----------------------- programmatic operators ----------------------- *)

(* Direct entry points for consumers that build operator chains in code
   (solver, checkers, mapping, bench) rather than through SQL, all on
   the vectorized {!Batch} layer.

   Each vectorized path reports to the plan observatory through a small
   synthetic annotated tree — scan children under the one real operator
   — built with the same estimators annotation uses, so sys.plans shows
   est-vs-actual for programmatic plans exactly like SQL ones.  All of
   that is gated on {!Obs.Config.on}: an uninstrumented run pays two
   clock reads per call and nothing else. *)

(* Fingerprint scans of a synthetic tree against the input tables. *)
let tables_lookup tables name =
  List.find_map
    (fun t ->
      if String.equal (Table.name t) name then
        Some (Schema.columns (Table.schema t))
      else None)
    tables

(* Run [f] over [inputs]; when observing, record the tree [root ()]
   builds, with the result's size and the time taken at its root. *)
let recorded inputs root f =
  let t0 = Obs.Clock.now_ns () in
  let out = f () in
  let total = Obs.Clock.since t0 in
  if Obs.Config.on () then begin
    let root = root () and rows = Table.cardinality out in
    root.actual <- rows;
    root.ns <- total;
    observe ~lookup:(tables_lookup inputs) root total rows
  end;
  out

(* A scan of [t], as observed, and [t]'s stats. *)
let scan t =
  let st = table_stats t in
  let n = node (Scan (Table.name t)) st.rows st.rows [] in
  n.actual <- Table.cardinality t;
  (n, st)

let equi_join ~on ta tb =
  let na = Table.cardinality ta and nb = Table.cardinality tb in
  (* build on the smaller side (ties: left), unless a plan-gate
     regression drill forces a side *)
  let build_left =
    match forced_build_side () with Some b -> b | None -> na <= nb
  in
  recorded [ ta; tb ]
    (fun () ->
      let (ca, sta), (cb, stb) = (scan ta, scan tb) in
      (* each key value of the side with more distinct keys matches about
         one of the other's; [distinct_est] caps a side's key count at its
         rows, so a key of many columns does not drive the estimate to
         zero the way a product of per-column selectivities would *)
      let keys =
        fmax
          (distinct_est sta (List.map fst on))
          (distinct_est stb (List.map snd on))
      in
      let rows = sta.rows *. stb.rows /. fmax 1. keys in
      node
        (Hash_join { on; build_left })
        rows
        (ca.cost +. cb.cost +. sta.rows +. stb.rows +. rows)
        [ ca; cb ])
  @@ fun () -> Batch.join_tables ~build_left ~on ta tb

let filter_root t e =
  let c, st = scan t in
  let rows = st.rows *. selectivity st (Plan.simplify_predicate e) in
  node (Filter e) rows (c.cost +. st.rows) [ c ]

let select ?funcs ?keep e t =
  recorded [ t ] (fun () -> filter_root t e) @@ fun () ->
  fst (Batch.select_table ?funcs ~where:e ?keep ~name:(Table.name t) t)

(* The probe is [LIMIT 1] over the filter, and reports itself as such
   (labelled by its whole predicate, so probes stay apart in sys.plans):
   the filter's actual count stops at the first survivor.  A [col =
   literal] conjunct on one of the [indexes] columns reads only the
   matching rows through {!Index.cached}, and the remaining conjuncts
   filter those; the probe then reports the index lookup it ran. *)
let exists ?funcs ?(indexes = []) e t =
  let t0 = Obs.Clock.now_ns () in
  let found, lookup =
    match split_indexable indexes e with
    | None -> (Batch.exists ?funcs e (Batch.of_table t), None)
    | Some (column, value, residual) ->
        (* gather the matching rows of just the columns the rest of
           the predicate reads *)
        let pred = Expr.conj residual in
        let idx = Index.lookup_idx (Index.cached t column) value in
        let rows = Table.gather (Table.project (Expr.free_columns pred) t) idx in
        ( Batch.exists ?funcs pred (Batch.of_table rows),
          Some (column, value, residual, Table.cardinality rows) )
  in
  let total = Obs.Clock.since t0 in
  if Obs.Config.on () then begin
    let rows = Bool.to_int found in
    let stopped f =
      f.actual <- rows;
      f
    in
    let f =
      match lookup with
      | None -> stopped (filter_root t e)
      | Some (column, value, residual, matched) -> (
          let ((leaf, _) as scan) =
            index_leaf (table_stats t) ~table:(Table.name t) ~column value
          in
          leaf.actual <- matched;
          match residual with
          | [] -> leaf
          | es -> stopped (fst (filter_node (Expr.conj es) scan)))
    in
    let est = fmin f.est 1. in
    let root = node (Limit 1) est (f.cost +. est) [ f ] in
    root.actual <- rows;
    root.ns <- total;
    observe ~query:(op_string (Filter e)) ~lookup:(tables_lookup [ t ]) root
      total rows
  end;
  found

(* A dedup of [t] on [cols], recorded as [op] over its scan. *)
let dedup_node op cols t =
  let c, st = scan t in
  node op (distinct_est st (cols st)) (c.cost +. st.rows) [ c ]

let group_count ~by t =
  recorded [ t ] (fun () -> dedup_node (Group by) (fun _ -> by) t)
  @@ fun () -> fst (Batch.group_table ~by t)

let distinct t =
  recorded [ t ] (fun () -> dedup_node Distinct (fun st -> st.cols) t)
  @@ fun () -> fst (Batch.distinct_table ~name:(Table.name t) t)

let union ta tb =
  recorded [ ta; tb ] (fun () -> fst (set_node Union (scan ta) (scan tb)))
  @@ fun () -> Batch.union ta tb

let except ta tb =
  recorded [ ta; tb ] (fun () -> fst (set_node Except (scan ta) (scan tb)))
  @@ fun () -> Batch.except ta tb
