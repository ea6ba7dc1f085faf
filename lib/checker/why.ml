open Relalg

let pr buf fmt = Printf.ksprintf (Buffer.add_string buf) fmt

(* ------------------------- row rendering ------------------------------ *)

let controller_table name =
  Option.map
    (fun c -> Protocol.Ctrl_spec.table c.Protocol.spec)
    (Protocol.find name)

(* "col=val" for every non-NULL cell: a controller row is sparse, so the
   populated cells are exactly the transition's story — input message,
   state lookups/updates, output messages. *)
let non_null_cells schema row =
  List.filteri (fun j _ -> row.(j) <> Value.Null) (Schema.columns schema)
  |> List.map (fun c ->
         Printf.sprintf "%s=%s"
           c
           (Value.to_string row.(Schema.index schema c)))

let render_row buf ~indent name tbl i =
  pr buf "%s%s[row %d]: %s\n" indent name i
    (String.concat " " (non_null_cells (Table.schema tbl) (Table.get tbl i)))

let render_controller_row buf ~indent (name, i) =
  match controller_table name with
  | Some tbl when i < Table.cardinality tbl -> render_row buf ~indent name tbl i
  | _ -> pr buf "%s%s[row %d]\n" indent name i

(* --------------------------- deadlock --------------------------------- *)

let max_witnesses = 3
let max_feeders = 6

(* The Direct dependencies sending into [vc], deduplicated by
   (controller, consumed message, emitted message): the transitions whose
   output traffic can fill the channel's queue. *)
let feeders entries vc =
  let seen = Hashtbl.create 16 in
  List.filter_map
    (fun (e : Dependency.entry) ->
      match e.provenance with
      | Dependency.Direct ctrl when e.dep.output.Dependency.vc = vc ->
          let key = (ctrl, e.dep.input.Dependency.msg, e.dep.output.Dependency.msg) in
          if Hashtbl.mem seen key then None
          else begin
            Hashtbl.add seen key ();
            Some (ctrl, e)
          end
      | _ -> None)
    entries

let edge_of cycle step =
  let nodes = Array.of_list cycle.Vcgraph.Cycles.nodes in
  let n = Array.length nodes in
  (nodes.(step), nodes.((step + 1) mod n))

let render_witness buf (e : Dependency.entry) =
  pr buf "      %s  [%s]\n"
    (Format.asprintf "%a" Dependency.pp_dep e.Dependency.dep)
    (Format.asprintf "%a" Dependency.pp_provenance e.Dependency.provenance);
  if e.Dependency.origin <> [] then begin
    pr buf "        read off controller row(s):\n";
    List.iter (render_controller_row buf ~indent:"        ") e.Dependency.origin
  end

let render_cycle buf entries i (c : _ Vcgraph.Cycles.cycle) =
  pr buf "cycle %d: %s\n" (i + 1) (Format.asprintf "%a" Vcgraph.Cycles.pp c);
  List.iteri
    (fun step witnesses ->
      let src, dst = edge_of c step in
      pr buf "  edge %s -> %s — consuming a message on %s needs queue space \
              on %s (%d witnessing dependencies):\n"
        src dst src dst (List.length witnesses);
      List.iteri
        (fun k e -> if k < max_witnesses then render_witness buf e)
        witnesses;
      if List.length witnesses > max_witnesses then
        pr buf "      ... %d more\n" (List.length witnesses - max_witnesses))
    c.Vcgraph.Cycles.labels;
  (* Who else sends into each channel of the cycle: the traffic that can
     fill its queue and make the dependency bite (the paper's wb/readex
     interleaving is reconstructed from exactly this). *)
  pr buf "  traffic feeding the cycle's channels:\n";
  List.iter
    (fun vc ->
      let fs = feeders entries vc in
      pr buf "    into %s:\n" vc;
      List.iteri
        (fun k (ctrl, (e : Dependency.entry)) ->
          if k < max_feeders then begin
            pr buf "      %s, consuming %s, sends %s (%s -> %s on %s)\n" ctrl
              e.Dependency.dep.input.Dependency.msg
              e.Dependency.dep.output.Dependency.msg
              e.Dependency.dep.output.Dependency.src
              e.Dependency.dep.output.Dependency.dst vc;
            List.iter
              (render_controller_row buf ~indent:"        ")
              e.Dependency.origin
          end)
        fs;
      if List.length fs > max_feeders then
        pr buf "      ... %d more\n" (List.length fs - max_feeders))
    c.Vcgraph.Cycles.nodes

let deadlock (r : Deadlock.report) =
  let buf = Buffer.create 4096 in
  pr buf "why deadlock? (assignment %s)\n" r.Deadlock.assignment.Vcassign.name;
  (match r.Deadlock.cycles with
  | [] ->
      pr buf
        "  no cycle in the virtual-channel dependency graph: every chain of \
         \"consume here needs space there\" terminates, so no set of full \
         queues can wait on itself.  Deadlock free.\n"
  | cycles ->
      pr buf
        "  %d cycle(s) in the virtual-channel dependency graph — each is a \
         ring of channels whose queues can all be full waiting on each \
         other:\n\n"
        (List.length cycles);
      List.iteri (fun i c -> render_cycle buf r.Deadlock.entries i c) cycles);
  Buffer.contents buf

let dot_escape s = String.concat "\\n" (String.split_on_char '\n' s)

let deadlock_dot (r : Deadlock.report) =
  let buf = Buffer.create 1024 in
  pr buf "digraph why {\n  rankdir=LR;\n  node [shape=ellipse];\n";
  let nodes = Hashtbl.create 8 and edges = Hashtbl.create 8 in
  List.iter
    (fun (c : _ Vcgraph.Cycles.cycle) ->
      List.iter
        (fun vc ->
          if not (Hashtbl.mem nodes vc) then begin
            Hashtbl.add nodes vc ();
            pr buf "  \"%s\";\n" vc
          end)
        c.Vcgraph.Cycles.nodes;
      List.iteri
        (fun step witnesses ->
          let src, dst = edge_of c step in
          if not (Hashtbl.mem edges (src, dst)) then begin
            Hashtbl.add edges (src, dst) ();
            let label =
              match witnesses with
              | [] -> ""
              | (e : Dependency.entry) :: _ ->
                  dot_escape
                    (Printf.sprintf "%s\n%s"
                       (Format.asprintf "%a" Dependency.pp_dep e.Dependency.dep)
                       (Format.asprintf "%a" Dependency.pp_origin
                          e.Dependency.origin))
            in
            pr buf "  \"%s\" -> \"%s\" [label=\"%s\"];\n" src dst label
          end)
        c.Vcgraph.Cycles.labels)
    r.Deadlock.cycles;
  pr buf "}\n";
  Buffer.contents buf

(* --------------------------- invariant -------------------------------- *)

let max_violations = 5

(* Every SQL invariant selects from one table, so a violating row is
   explained by the rows it was selected from, and those can be found
   again from the query alone, after it ran. *)
let witnesses db (q : Sql_ast.query) =
  match q with
  | Sql_ast.Select
      { columns = (Sql_ast.Star | Sql_ast.Columns _) as columns; from; where; _ }
    ->
      let t = Database.find db from in
      let schema = Table.schema t in
      let holds =
        match where with
        | None -> fun _ -> true
        | Some p -> Expr.compile ~funcs:(Database.functions db) schema p
      in
      let proj =
        match columns with
        | Sql_ast.Columns cs -> Array.of_list (List.map (Schema.index schema) cs)
        | _ -> Array.init (Schema.arity schema) Fun.id
      in
      let selected =
        List.filter_map
          (fun k ->
            let base = Table.get t k in
            if holds base then Some (k, base) else None)
          (List.init (Table.cardinality t) Fun.id)
      in
      let find row =
        List.filter_map
          (fun (k, base) ->
            if Array.for_all2 (fun j v -> Value.equal base.(j) v) proj row
            then Some k
            else None)
          selected
      in
      Some (t, find)
  | _ -> None

let render_witnesses buf t ks =
  let shown = List.filteri (fun n _ -> n < max_violations) ks in
  pr buf "    derived from %s:\n"
    (String.concat " + "
       (List.map (Printf.sprintf "%s[%d]" (Table.name t)) shown));
  List.iter (render_row buf ~indent:"      " (Table.name t) t) shown;
  let more = List.length ks - List.length shown in
  if more > 0 then pr buf "      (and %d more)\n" more

let invariant db (inv : Invariant.t) =
  let r = Invariant.run db inv in
  let buf = Buffer.create 2048 in
  pr buf "why invariant %s?\n  \"%s\" (over %s)\n" inv.Invariant.id
    inv.Invariant.description inv.Invariant.controller;
  (match inv.Invariant.check with
  | Invariant.Sql q -> pr buf "  check: [%s] selects the violating rows\n" q
  | Invariant.Native _ -> pr buf "  check: native (non-SQL) counterexample search\n");
  let v = r.Invariant.violations in
  if r.Invariant.passed then
    pr buf "  HOLDS: the check selected no rows — no reachable controller \
            row contradicts it.\n"
  else begin
    pr buf "  VIOLATED: %d counterexample row(s)%s\n" (Table.cardinality v)
      (if Table.cardinality v > max_violations then
         Printf.sprintf " (showing %d)" max_violations
       else "");
    let schema = Table.schema v in
    let explain =
      match inv.Invariant.check with
      | Invariant.Sql q -> witnesses db (Sql_parser.parse_query q)
      | Invariant.Native _ -> None
    in
    for i = 0 to min (Table.cardinality v) max_violations - 1 do
      let row = Table.get v i in
      pr buf "  row %d: %s\n" i (String.concat " " (non_null_cells schema row));
      match explain with
      | None ->
          pr buf "    (no lineage: rows were built directly, not derived \
                  from base tables)\n"
      | Some (t, find) -> render_witnesses buf t (find row)
    done
  end;
  (r.Invariant.passed, Buffer.contents buf)
