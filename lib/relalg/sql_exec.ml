exception Exec_error of string

let error fmt = Printf.ksprintf (fun s -> raise (Exec_error s)) fmt

let obs_reg = lazy (Obs.Metrics.registry "relalg")
let obs_counter name = Obs.Metrics.counter (Lazy.force obs_reg) name

let rec referenced_tables (q : Sql_ast.query) =
  match q with
  | Select { from; _ } -> [ from ]
  | Union (a, b) | Except (a, b) | Intersect (a, b) ->
      referenced_tables a @ referenced_tables b

let find_tables db q =
  List.map
    (fun name ->
      match Database.find_opt db name with
      | Some t -> t
      | None -> error "unknown table %s" name)
    (referenced_tables q)

(* The reference answer, for tests and bench/e2e: the unoptimized plan
   run by the row-at-a-time oracle, on the calling domain. *)
let run_query_reference db q =
  ignore (find_tables db q);
  Table.with_name "<query>" (Oracle.execute db (Plan.of_query q))

(* Dispatch: the cost-based planner runs the query through the
   vectorized engine.  Unknown tables and unknown functions raise
   {!Exec_error}.  [prepare] supplies the plan, given the referenced
   tables.  Planner executions
   land in the plan observatory under [label] (the SQL text when coming
   through {!query}); the "sql" site applies only when no more specific
   call-site label (invariant id, solver phase) is already active. *)
let dispatch ?label db (q : Sql_ast.query) ~prepare =
  let tables = find_tables db q in
  try
    let run () = Planner.run_prepared ?label db (prepare tables) in
    match Obs.Planlog.site () with
    | None -> Obs.Planlog.with_site "sql" run
    | Some _ -> run ()
  with Expr.Unknown_function f -> error "unknown function %s" f

let run_query ?label db q =
  dispatch ?label db q ~prepare:(fun _ -> Planner.prepare db q)

(* sys.* tables are engine-materialized snapshots: readable like any
   table, but not a valid target for DDL/DML. *)
let check_writable name =
  if Database.is_system_name name then
    error "%s is a read-only system table (the sys. prefix is reserved)" name

let run_statement db (s : Sql_ast.statement) =
  match s with
  | Query q -> db, Some (run_query db q)
  | Create_table_as (name, q) ->
      check_writable name;
      let t = Table.with_name name (run_query db q) in
      Database.replace db t, Some t
  | Insert (name, rows) ->
      check_writable name;
      let t =
        match Database.find_opt db name with
        | Some t -> t
        | None -> error "unknown table %s" name
      in
      let t = Table.add_all t (List.map Row.of_list rows) in
      Database.replace db t, None
  | Drop_table name ->
      check_writable name;
      if not (Database.mem db name) then error "unknown table %s" name;
      Database.remove db name, None

(* Prepared queries, keyed by SQL text.  The AST never depends on the
   database; the plan is tagged with the Table.id of every table it
   reads, and re-made when any differs.  A table edit always yields a
   fresh id, so a plan's estimates, and the physical choices made from
   them, belong to the snapshots it runs on.  (The SQL subset has no
   joins, so a forced build side cannot change an SQL plan.)  An entry
   is stored only after its query ran, so a failing text leaves nothing
   behind, and the table is cleared when full, so any number of distinct
   texts stays bounded. *)
type entry = {
  ast : Sql_ast.query;
  plan : (int list * Planner.prepared) option;
}

let capacity = 256
let cache : (string, entry) Hashtbl.t = Hashtbl.create 64
let cache_lock = Mutex.create ()

let remember src entry =
  Mutex.protect cache_lock @@ fun () ->
  if Hashtbl.length cache >= capacity && not (Hashtbl.mem cache src) then
    Hashtbl.reset cache;
  Hashtbl.replace cache src entry

let query db src =
  Obs.Trace.with_span ~cat:"relalg"
    ~args:[ "query", Obs.Json.Str src ]
    "sql.query"
  @@ fun () ->
  let cached =
    Mutex.protect cache_lock @@ fun () -> Hashtbl.find_opt cache src
  in
  let entry =
    match cached with
    | Some e -> e
    | None -> { ast = Sql_parser.parse_query src; plan = None }
  in
  let plan = ref entry.plan in
  let prepare tables =
    let tag = List.map Table.id tables in
    match entry.plan with
    | Some (t, p) when t = tag ->
        Obs.Metrics.incr (obs_counter "plan_cache.hits");
        p
    | _ ->
        Obs.Metrics.incr (obs_counter "plan_cache.misses");
        let p = Planner.prepare db entry.ast in
        plan := Some (tag, p);
        p
  in
  let result = dispatch ~label:src db entry.ast ~prepare in
  if cached = None || !plan != entry.plan then
    remember src { entry with plan = !plan };
  Obs.Metrics.incr (obs_counter "queries");
  Obs.Metrics.add (obs_counter "rows_returned") (Table.cardinality result);
  result

let exec db src =
  Obs.Trace.with_span ~cat:"relalg"
    ~args:[ "statement", Obs.Json.Str src ]
    "sql.exec"
  @@ fun () ->
  Obs.Metrics.incr (obs_counter "statements");
  run_statement db (Sql_parser.parse_statement src)

let exec_script db stmts =
  List.fold_left (fun db src -> fst (exec db src)) db stmts

let is_empty db src = Table.is_empty (query db src)
