(* The five workloads of the end-to-end benchmark.

   Each request regenerates one artifact of the paper and checks its
   verdict against numbers written here by hand.  They were verified
   once against the CLI and the boxed sequential model checker
   ([`Seq]); they are never derived from the code under test at run
   time.  The seed only changes the order of the independent parts of
   a request.

   Every workload also has a replica: the same work rebuilt from the
   layers' public functions, with one span (or one busy section) per
   layer call, so the traced run can split a request's time by layer. *)

open Relalg
module Explore = Mcheck.Explore
module Semantics = Mcheck.Semantics
module Pack = Mcheck.Pack

type instance = {
  request : unit -> (unit, string) result;
  replica : unit -> (unit, string) result;
}

type t = {
  name : string;
  tail_pct : float;
      (** the highest of p99/p95/p90/p80 that keeps at least ten samples
          beyond it in a 10-round set *)
  mcheck : bool;  (** runs the model checker: flight-recorder and steal metrics apply *)
  setup : traced:bool -> Random.State.t -> instance;
}

let ( let* ) = Result.bind

let expect what ~want got =
  if got = want then Ok ()
  else Error (Printf.sprintf "%s: expected %d, got %d" what want got)

let check what cond = if cond then Ok () else Error what

(* Run the steps in order, stopping at the first error. *)
let all steps = List.fold_left (fun acc step -> let* () = acc in step ()) (Ok ()) steps

let shuffle rng l =
  let a = Array.of_list l in
  for i = Array.length a - 1 downto 1 do
    let j = Random.State.int rng (i + 1) in
    let x = a.(i) in
    a.(i) <- a.(j);
    a.(j) <- x
  done;
  Array.to_list a

(* ---------------------------- invariants ----------------------------- *)

let rec plan_nodes (n : Planner.t) = n :: List.concat_map plan_nodes n.children

(* One invariant through the SQL layers (parse, plan, execute) or, for a
   native check, through [Invariant.run]; returns the violating rows. *)
let replica_invariant db (inv : Checker.Invariant.t) =
  match inv.check with
  | Sql q ->
      let ast = Span.span "sql.parse" (fun () -> Sql_parser.parse_query q) in
      let plan = Span.span "sql.plan" (fun () -> Planner.plan db (Plan.of_query ast)) in
      let rows = Span.span "sql.execute" (fun () -> Planner.execute db plan) in
      let nodes = plan_nodes plan in
      Span.count "sql.queries" 1;
      Span.count "sql.batches" (List.fold_left (fun a (n : Planner.t) -> a + n.batches) 0 nodes);
      Span.count "sql.rows_scanned"
        (List.fold_left
           (fun a (n : Planner.t) -> match n.op with Scan _ -> a + n.actual | _ -> a)
           0 nodes);
      rows
  | Native _ ->
      (Span.span "invariant.native" (fun () -> Checker.Invariant.run db inv)).violations

let invariant_verdict ~checked ~failed =
  let* () = expect "invariants checked" ~want:74 checked in
  expect "invariants failed" ~want:0 failed

let invariants =
  {
    name = "invariants";
    tail_pct = 99.;
    mcheck = false;
    setup =
      (fun ~traced:_ rng ->
        let db = Span.span "setup.protocol_tables" Protocol.database in
        {
          request =
            (fun () ->
              let results =
                Checker.Invariant.run_all ~invariants:(shuffle rng Checker.Invariant.all) db
              in
              invariant_verdict ~checked:(List.length results)
                ~failed:(List.length (Checker.Invariant.failures results)));
          replica =
            (fun () ->
              let invs = shuffle rng Checker.Invariant.all in
              let failed =
                List.filter (fun inv -> not (Table.is_empty (replica_invariant db inv))) invs
              in
              invariant_verdict ~checked:(List.length invs) ~failed:(List.length failed));
        });
  }

(* The replica's SQL path must return what the row-at-a-time reference
   interpreter returns, query by query. *)
let invariants_agree_with_reference () =
  let db = Protocol.database () in
  all
    (List.filter_map
       (fun (inv : Checker.Invariant.t) ->
         match inv.check with
         | Native _ -> None
         | Sql q ->
             Some
               (fun () ->
                 expect
                   (inv.id ^ " rows, replica vs reference")
                   ~want:
                     (Table.cardinality
                        (Sql_exec.run_query_reference db (Sql_parser.parse_query q)))
                   (Table.cardinality (replica_invariant db inv))))
       Checker.Invariant.all)

(* ------------------------------ checks ------------------------------- *)

type step = Deadlock of Checker.Vcassign.t * int | Partition | Figure4

(* expected cycle counts: only the debugged assignment is deadlock-free *)
let steps =
  Checker.Vcassign.
    [ Deadlock (initial, 7); Deadlock (with_vc4, 3); Deadlock (debugged, 0); Partition; Figure4 ]

let tables_verdict db =
  expect "implementation tables" ~want:9
    (List.length (Mapping.Partition.implementation_tables db))

let figure4_verdict = function
  | Sim.Runner.Deadlock { steps; _ } -> expect "figure4 deadlock steps" ~want:10 steps
  | Sim.Runner.Quiescent _ -> Error "figure4: drained, expected a deadlock"

let run_step = function
  | Deadlock (v, want) ->
      let r = Checker.Deadlock.analyze v in
      let* () = expect (v.name ^ " cycles") ~want (List.length r.cycles) in
      check (v.name ^ ": wrong deadlock-freedom verdict")
        (Checker.Deadlock.is_deadlock_free r = (want = 0))
  | Partition -> tables_verdict (Mapping.Partition.run ())
  | Figure4 -> figure4_verdict (fst (Sim.Scenario.figure4 Checker.Vcassign.with_vc4))

let replica_step = function
  | Deadlock (v, want) ->
      let entries =
        Span.span "dependency.protocol" (fun () ->
            Checker.Dependency.protocol_dependency ~v Protocol.deadlock_controllers)
      in
      let vcg = Span.span "vcg.build" (fun () -> Checker.Vcg.build entries) in
      let cycles = Span.span "graph.cycles" (fun () -> Checker.Vcg.cycles vcg) in
      Span.count "dependency.entries" (List.length entries);
      Span.count "vcg.edges" (Vcgraph.Digraph.num_edges vcg);
      Span.count "graph.cycles" (List.length cycles);
      expect (v.name ^ " cycles") ~want (List.length cycles)
  | Partition ->
      let db = Span.span "mapping.extend" Mapping.Extend.database in
      let db =
        List.fold_left
          (fun db src ->
            let stmt = Span.span "sql.parse" (fun () -> Sql_parser.parse_statement src) in
            let db, created =
              Span.span "sql.write" (fun () -> Sql_exec.run_statement db stmt)
            in
            Option.iter (fun t -> Span.count "mapping.rows_written" (Table.cardinality t)) created;
            db)
          db
          (Mapping.Partition.sql_statements ())
      in
      tables_verdict db
  | Figure4 ->
      let result, _ =
        Span.span "sim.figure4" (fun () -> Sim.Scenario.figure4 Checker.Vcassign.with_vc4)
      in
      (match result with
      | Sim.Runner.Deadlock { steps; _ } | Sim.Runner.Quiescent { steps } ->
          Span.count "sim.steps" steps);
      figure4_verdict result

let checks =
  {
    name = "checks";
    tail_pct = 95.;
    mcheck = false;
    setup =
      (fun ~traced:_ rng ->
        ignore (Span.span "setup.protocol_tables" Protocol.database : Database.t);
        (* ED is memoized: generate it here, not in the first request *)
        ignore (Mapping.Extend.ed () : Table.t);
        {
          request = (fun () -> all (List.map (fun s () -> run_step s) (shuffle rng steps)));
          replica = (fun () -> all (List.map (fun s () -> replica_step s) (shuffle rng steps)));
        });
  }

(* ----------------------------- generate ------------------------------ *)

let expected_rows =
  [ "D", 1156; "M", 8; "C", 21; "N", 18; "RAC", 19; "IO", 4; "PIF", 23; "LK", 296 ]

let generate =
  {
    name = "generate";
    tail_pct = 80.;
    mcheck = false;
    setup =
      (fun ~traced:_ rng ->
        let specs =
          List.map
            (fun (c : Protocol.controller) ->
              let name = Protocol.Ctrl_spec.name c.spec in
              name, Protocol.Ctrl_spec.to_solver_spec c.spec, List.assoc name expected_rows)
            Protocol.controllers
        in
        let rows_verdict name ~want t = expect (name ^ " rows") ~want (Table.cardinality t) in
        {
          request =
            (fun () ->
              all
                (List.map
                   (fun (name, spec, want) () ->
                     rows_verdict name ~want (fst (Solver.generate spec)))
                   (shuffle rng specs)));
          replica =
            (fun () ->
              all
                (List.map
                   (fun (name, spec, want) () ->
                     let layer = if name = "D" then "solver.D" else "solver.rest" in
                     let t, (stats : Solver.stats) =
                       Span.span layer (fun () -> Solver.generate spec)
                     in
                     Span.count "solver.candidates" stats.candidates;
                     Span.count "solver.evaluations" stats.evaluations;
                     Span.count "solver.rows" (Table.cardinality t);
                     rows_verdict name ~want t)
                   (shuffle rng specs)));
        });
  }

(* ------------------------------ mcheck ------------------------------- *)

type search = {
  label : string;
  cfg : Semantics.config;
  symmetry : bool;
  explored : int;  (** states the search visits, verified with [`Seq] *)
  violation : bool;
}

let search ?(nodes = 2) ?(lossy = false) ?(symmetry = false) label ops ~explored ~violation =
  {
    label;
    cfg = { Semantics.nodes; addrs = 1; ops; capacity = 3; io_addrs = []; lossy };
    symmetry;
    explored;
    violation;
  }

let sym3 =
  search ~nodes:3 ~symmetry:true "3-node symmetric" [ "load"; "store" ] ~explored:13_618
    ~violation:false

let all_ops =
  search "2-node all ops" [ "load"; "store"; "evictmod"; "evictsh" ] ~explored:16_188
    ~violation:false

(* a dropped message wedges the protocol after 44 states *)
let lossy = search ~lossy:true "2-node lossy" [ "load"; "store" ] ~explored:44 ~violation:true

let search_verdict s ~explored ~violated =
  let* () = expect (s.label ^ " explored") ~want:s.explored explored in
  check (s.label ^ ": wrong violation verdict") (violated = s.violation)

let real_search tables s =
  let (r : Explore.result), ns =
    Obs.Clock.timed (fun () -> Explore.run ~symmetry:s.symmetry ~tables s.cfg)
  in
  if s.violation then Span.count "mcheck.cex_ns" (Int64.to_int ns)
  else begin
    Span.count "mcheck.explored" r.explored;
    Span.count "mcheck.transitions" r.transitions;
    Span.count "mcheck.dedup_hits" r.dedup_hits;
    Span.count "mcheck.max_frontier" r.max_frontier
  end;
  let* () = check (s.label ^ ": search incomplete") r.complete in
  let* () =
    match r.violation with
    | Some v when v.trace = [] -> Error (s.label ^ ": violation without a trace")
    | _ -> Ok ()
  in
  search_verdict s ~explored:r.explored ~violated:(r.violation <> None)

module Visited = Hashtbl.Make (struct
  type t = int array

  let equal = Pack.equal
  let hash = Pack.hash
end)

(* A sequential BFS in the order of the [`Seq] reference engine, over
   the bucketed rule index and packed states, stopping at the first
   violation like the engines do. *)
let replica_search ~indexed ~layout s =
  let cfg = s.cfg in
  let key st =
    Span.busy "mcheck.canonical" (fun () ->
        if s.symmetry then Pack.canonical layout st else Pack.pack layout st)
  in
  let visited = Visited.create 4096 in
  let fresh k =
    Span.busy "mcheck.dedup" (fun () ->
        (not (Visited.mem visited k)) && (Visited.add visited k (); true))
  in
  let queue = Queue.create () in
  let initial = Mcheck.Mstate.initial ~nodes:cfg.nodes ~addrs:cfg.addrs in
  ignore (fresh (key initial) : bool);
  Queue.add initial queue;
  let rec go explored =
    match Queue.take_opt queue with
    | None -> explored, false
    | Some st ->
        let explored = explored + 1 in
        if Span.busy "mcheck.state_checks" (fun () -> Semantics.state_violations cfg st) <> []
        then explored, true
        else
          let succs =
            Span.busy "mcheck.successors" (fun () ->
                Semantics.successors ~labels:false indexed cfg st)
          in
          let broken = function _, Semantics.Broken _ -> true | _, Semantics.Next _ -> false in
          if (succs = [] && not (Mcheck.Mstate.quiescent st)) || List.exists broken succs then
            explored, true
          else begin
            List.iter
              (function
                | _, Semantics.Next st' -> if fresh (key st') then Queue.add st' queue
                | _, Semantics.Broken _ -> ())
              succs;
            go explored
          end
  in
  let explored, violated = go 0 in
  search_verdict { s with label = s.label ^ " replica" } ~explored ~violated

let mcheck_workload name ~tail_pct searches =
  {
    name;
    tail_pct;
    mcheck = true;
    setup =
      (fun ~traced rng ->
        let tables, indexed =
          Span.span "setup.mcheck_tables" (fun () ->
              let tables = Semantics.load_tables () in
              tables, if traced then Some (Semantics.index_tables tables) else None)
        in
        let layouts = List.map (fun s -> s, lazy (Explore.layout_of_tables tables s.cfg)) searches in
        {
          request = (fun () -> all (List.map (fun s () -> real_search tables s) (shuffle rng searches)));
          replica =
            (fun () ->
              let indexed = Option.get indexed in
              all
                (List.map
                   (fun (s, layout) () -> replica_search ~indexed ~layout:(Lazy.force layout) s)
                   (shuffle rng layouts)));
        });
  }

let all_workloads =
  [
    invariants;
    checks;
    generate;
    mcheck_workload "mcheck-sym" ~tail_pct:90. [ sym3 ];
    mcheck_workload "mcheck-2node" ~tail_pct:90. [ all_ops; lossy ];
  ]

let find name = List.find_opt (fun w -> w.name = name) all_workloads
