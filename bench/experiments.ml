(* The experiment harness: regenerates every table, figure and headline
   number of the paper (see DESIGN.md's experiment index E1-E11) and
   prints paper-vs-measured rows.  EXPERIMENTS.md records the results. *)

open Relalg

let section id title =
  Printf.printf "\n=== %s: %s ===\n" id title

let kv fmt = Printf.printf fmt

let time f =
  let t0 = Unix.gettimeofday () in
  let x = f () in
  x, Unix.gettimeofday () -. t0

(* ------------------------------------------------------------------ *)
(* E1: Figure 1 — the protocol message inventory                       *)
(* ------------------------------------------------------------------ *)

let e1 () =
  section "E1" "message inventory (paper Figure 1: ~50 message types)";
  let total = List.length Protocol.Message.all in
  let requests =
    List.length (List.filter (fun m -> m.Protocol.Message.class_ = Protocol.Message.Request) Protocol.Message.all)
  in
  kv "paper: around 50 messages      measured: %d (%d requests, %d responses)\n"
    total requests (total - requests);
  kv "paper-named messages present: readex wb sinv mread data idone compl retry dfdback\n";
  kv "groups: %d local requests, %d snoops, %d snoop responses, %d local responses, %d memory-path\n"
    (List.length Protocol.Message.local_requests)
    (List.length Protocol.Message.snoop_requests)
    (List.length Protocol.Message.snoop_responses)
    (List.length Protocol.Message.local_responses)
    (List.length Protocol.Message.memory_requests
    + List.length Protocol.Message.memory_responses)

(* ------------------------------------------------------------------ *)
(* E2: Figures 2 and 3 — the read-exclusive transaction                *)
(* ------------------------------------------------------------------ *)

let e2 () =
  section "E2" "the readex transaction rows of D (paper Figure 3)";
  let fig = Protocol.Dir_controller.figure3 () in
  print_string (Table.to_string fig);
  let _, trace = Sim.Scenario.readex_walkthrough Checker.Vcassign.debugged in
  kv "\nthe same transaction executed (paper Figure 2):\n\n%s\n"
    (Sim.Msc.render_run trace);
  kv "(datax is the combined data+compl response; Busy rows come from the\n";
  kv " busy directory; the -c rows are the completion-ack handshake the\n";
  kv " paper describes as 'D receiving a compl response')\n"

(* ------------------------------------------------------------------ *)
(* E3: section 3 — table sizes                                          *)
(* ------------------------------------------------------------------ *)

let e3 () =
  section "E3" "controller-table statistics (paper section 3)";
  kv "%-6s %8s %8s\n" "table" "rows" "columns";
  List.iter
    (fun c ->
      let t = Protocol.Ctrl_spec.table c.Protocol.spec in
      kv "%-6s %8d %8d\n" (Table.name t) (Table.cardinality t) (Table.arity t))
    Protocol.controllers;
  let db = Protocol.database () in
  let grouped =
    Relalg.Sql_exec.query db
      "SELECT inmsgres, COUNT(*) FROM D GROUP BY inmsgres"
  in
  kv "D rows by arrival resource (SQL GROUP BY):\n%s"
    (Relalg.Table.to_string grouped);
  let d = Protocol.Dir_controller.table () in
  let prof = Relalg.Profile.profile d in
  kv "D sparsity: %.0f%% of cells are NULL (the paper: 'quite sparse')\n"
    (100. *. Relalg.Profile.sparsity prof);
  kv "columns (%d) are an order of magnitude fewer than rows (%d)\n"
    prof.Relalg.Profile.columns prof.Relalg.Profile.rows;
  kv "paper D: 30 columns x ~500 rows, ~40 busy states, 8 tables\n";
  kv "ours  D: %d columns x %d rows, %d busy states, %d tables\n"
    (Table.arity d) (Table.cardinality d)
    (List.length Protocol.State.all_busy_states)
    (List.length Protocol.controllers)

(* ------------------------------------------------------------------ *)
(* E4: incremental vs monolithic generation                            *)
(* ------------------------------------------------------------------ *)

(* a synthetic k-column controller in the style of D: each column
   constrained against its predecessor, domains of size 4 *)
let chain_spec k =
  let domain = List.map Value.str [ "p"; "q"; "r"; "s" ] in
  let columns =
    List.init k (fun i ->
        {
          Solver.cname = Printf.sprintf "c%d" i;
          role = (if i = 0 then Solver.Input else Solver.Output);
          domain;
        })
  in
  let constraints =
    List.init (k - 1) (fun i ->
        ( Printf.sprintf "c%d" (i + 1),
          Expr.(
            ternary
              (eq (Printf.sprintf "c%d" i) "p")
              (eq (Printf.sprintf "c%d" (i + 1)) "q")
              (isin (Printf.sprintf "c%d" (i + 1)) [ "p"; "r" ])) ))
  in
  Solver.make ~name:(Printf.sprintf "chain%d" k) ~columns ~constraints

let e4 () =
  section "E4"
    "incremental vs monolithic generation (paper: minutes vs ~6 hours)";
  kv "%-8s %14s %14s %12s %12s\n" "columns" "incr-cands" "mono-cands"
    "incr-ms" "mono-ms";
  List.iter
    (fun k ->
      let spec = chain_spec k in
      let (_, si), ti = time (fun () -> Solver.generate spec) in
      let (_, sm), tm = time (fun () -> Solver.generate_monolithic spec) in
      kv "%-8d %14d %14d %12.2f %12.2f\n" k si.Solver.candidates
        sm.Solver.candidates (ti *. 1000.) (tm *. 1000.))
    [ 4; 6; 8; 10; 12 ];
  let spec = Protocol.Ctrl_spec.to_solver_spec Protocol.Dir_controller.spec in
  let (_, sd), td = time (fun () -> Solver.generate spec) in
  kv "full D: incremental %d candidates in %.2f ms;\n" sd.Solver.candidates
    (td *. 1000.);
  kv "        monolithic would enumerate %.3e candidates (the paper's ~6 hours)\n"
    (float_of_int (Solver.search_space spec))

(* ------------------------------------------------------------------ *)
(* E5: sections 4.1-4.2 — deadlock detection                           *)
(* ------------------------------------------------------------------ *)

let e5 () =
  section "E5" "deadlock detection across the paper's three assignments";
  List.iter
    (fun (desc, r) ->
      let _, t = time (fun () -> Checker.Deadlock.analyze r.Checker.Deadlock.assignment) in
      kv "\n--- %s (%.0f ms) ---\n" desc (t *. 1000.);
      kv "dependency rows: %d   VCG: %d channels, %d edges   cycles: %d\n"
        (List.length r.Checker.Deadlock.entries)
        (Vcgraph.Digraph.num_vertices r.Checker.Deadlock.vcg)
        (Vcgraph.Digraph.num_edges r.Checker.Deadlock.vcg)
        (List.length r.Checker.Deadlock.cycles);
      List.iter
        (fun (c : _ Vcgraph.Cycles.cycle) ->
          kv "  cycle: %s\n" (Format.asprintf "%a" Vcgraph.Cycles.pp c))
        r.Checker.Deadlock.cycles)
    (Checker.Deadlock.narrative ());
  kv "\npaper: several cycles with VC0-VC3; a VC2/VC4 cycle (Figure 4) after\n";
  kv "adding VC4, incl. the composed self-loop R3; clean after the fix.\n";
  (* show the witnesses of the VC2<->VC4 cycle, the paper's R1/R2 rows *)
  let r = Checker.Deadlock.analyze Checker.Vcassign.with_vc4 in
  List.iter
    (fun (c : _ Vcgraph.Cycles.cycle) ->
      if List.sort compare c.nodes = [ "VC2"; "VC4" ] then begin
        kv "\nwitnesses of the VC2 <-> VC4 cycle:\n";
        List.iter
          (fun witnesses ->
            List.iteri
              (fun i (e : Checker.Dependency.entry) ->
                if i < 2 then
                  kv "  %s  [%s]\n"
                    (Format.asprintf "%a" Checker.Dependency.pp_dep e.dep)
                    (Format.asprintf "%a" Checker.Dependency.pp_provenance
                       e.provenance))
              witnesses)
          c.labels
      end)
    r.Checker.Deadlock.cycles

(* ------------------------------------------------------------------ *)
(* E6: section 4.3 — protocol invariants                               *)
(* ------------------------------------------------------------------ *)

let e6 () =
  section "E6" "protocol invariants (paper: ~50 checked in under 5 minutes)";
  let db = Protocol.database () in
  let results, t = time (fun () -> Checker.Invariant.run_all db) in
  let failed = Checker.Invariant.failures results in
  kv "paper: ~50 invariants, < 5 min on a Sparc 10\n";
  kv "ours : %d invariants, %.1f ms, %d failed\n" (List.length results)
    (t *. 1000.) (List.length failed);
  let by_ctrl =
    List.sort_uniq compare
      (List.map (fun (r : Checker.Invariant.result) -> r.invariant.controller) results)
  in
  List.iter
    (fun c ->
      kv "  %-4s %d invariants\n" c
        (List.length
           (List.filter
              (fun (r : Checker.Invariant.result) -> r.invariant.controller = c)
              results)))
    by_ctrl

(* ------------------------------------------------------------------ *)
(* E7/E8: section 5 — mapping to hardware                              *)
(* ------------------------------------------------------------------ *)

let e7_e8 () =
  section "E7" "implementation mapping (paper: ED + nine tables + check)";
  let ed, t_ed = time (fun () -> Mapping.Extend.ed ()) in
  kv "ED: %d rows x %d columns (%.0f ms)\n" (Table.cardinality ed)
    (Table.arity ed) (t_ed *. 1000.);
  let db, t_part = time (fun () -> Mapping.Partition.run ()) in
  kv "implementation tables (%.0f ms):\n" (t_part *. 1000.);
  List.iter
    (fun t -> kv "  %-18s %5d rows\n" (Table.name t) (Table.cardinality t))
    (Mapping.Partition.implementation_tables db);
  let outcome, t_rec = time (fun () -> Mapping.Reconstruct.check ~db ()) in
  kv "reconstruction (%.0f ms): ED preserved = %b, D contained = %b\n"
    (t_rec *. 1000.) outcome.Mapping.Reconstruct.ed_preserved
    outcome.Mapping.Reconstruct.d_preserved;
  section "E8" "code generation agrees with the tables";
  List.iter
    (fun (g : Mapping.Partition.group) ->
      let t = Database.find db g.Mapping.Partition.table_name in
      let ok =
        Mapping.Codegen.agrees_with_table ~inputs:Mapping.Extend.input_columns
          ~outputs:g.Mapping.Partition.payload t
      in
      let code =
        Mapping.Codegen.to_verilog ~name:g.Mapping.Partition.table_name
          (Mapping.Codegen.rules_of_table ~inputs:Mapping.Extend.input_columns
             ~outputs:g.Mapping.Partition.payload t)
      in
      kv "  %-18s agrees=%b  %6d lines of verilog\n"
        g.Mapping.Partition.table_name ok
        (List.length (String.split_on_char '\n' code)))
    Mapping.Partition.groups

(* ------------------------------------------------------------------ *)
(* E9: the model-checker baseline and state explosion                  *)
(* ------------------------------------------------------------------ *)

let e9 () =
  section "E9"
    "explicit-state model checking vs SQL static analysis (state explosion)";
  let tables = Mcheck.Semantics.load_tables () in
  kv "%-28s %10s %12s %10s %10s\n" "configuration" "states" "transitions"
    "time-s" "complete";
  List.iter
    (fun (nodes, ops) ->
      let cfg = { Mcheck.Semantics.nodes; addrs = 1; ops; capacity = 3; io_addrs = []; lossy = false } in
      let r = Mcheck.Explore.run ~max_states:400_000 ~tables cfg in
      kv "%d nodes, %-14s %10d %12d %10.2f %10b\n" nodes
        (String.concat "," ops) r.Mcheck.Explore.explored
        r.Mcheck.Explore.transitions r.Mcheck.Explore.elapsed
        r.Mcheck.Explore.complete)
    [
      1, [ "load"; "store" ];
      2, [ "load"; "store" ];
      2, [ "load"; "store"; "evictmod"; "evictsh" ];
      3, [ "load"; "store" ];
      3, [ "load"; "store"; "evictmod"; "evictsh" ];
      4, [ "load"; "store" ];
    ];
  (* the classical mitigation, for scale: one representative per
     node-permutation orbit (Murphi's scalarset symmetry) *)
  List.iter
    (fun nodes ->
      let cfg =
        { Mcheck.Semantics.nodes; addrs = 1; ops = [ "load"; "store" ];
          capacity = 3; io_addrs = []; lossy = false }
      in
      let r = Mcheck.Explore.run ~max_states:400_000 ~symmetry:true ~tables cfg in
      kv "%d nodes, load,store +symmetry %8d %12d %10.2f %10b\n" nodes
        r.Mcheck.Explore.explored r.Mcheck.Explore.transitions
        r.Mcheck.Explore.elapsed r.Mcheck.Explore.complete)
    [ 3; 4 ];
  let _, t_static =
    time (fun () ->
        let db = Protocol.database () in
        ignore (Checker.Invariant.run_all db);
        ignore (Checker.Deadlock.analyze Checker.Vcassign.debugged))
  in
  kv "SQL static analysis of the same protocol: %.2f s, independent of node count\n"
    t_static;
  kv "(the paper: model checkers 'have a lot of reasoning power' but need\n";
  kv " extensive abstraction to avoid state explosion)\n"

(* ------------------------------------------------------------------ *)
(* E10: Figure 4 replayed dynamically                                  *)
(* ------------------------------------------------------------------ *)

let e10 () =
  section "E10" "Figure 4 replay in the queue-accurate simulator";
  List.iter
    (fun (name, v) ->
      let result, _ = Sim.Scenario.figure4 v in
      kv "%-12s %s\n" name (Format.asprintf "%a" Sim.Runner.pp_result result))
    [ "V-vc4", Checker.Vcassign.with_vc4; "V-debugged", Checker.Vcassign.debugged ];
  let _, trace = Sim.Scenario.figure4 Checker.Vcassign.with_vc4 in
  kv "\nthe interleaving, as a sequence chart (paper Figure 4):\n\n%s\n"
    (Sim.Msc.render_run trace);
  kv "paper: wb(B)/readex(A) interleaving wedges VC2 and VC4; the dedicated\n";
  kv "mread path resolves it.\n"

(* ------------------------------------------------------------------ *)
(* E11: the seeded-error corpus — early detection                      *)
(* ------------------------------------------------------------------ *)

type seeded = {
  bug : string;
  caught_by : string;
  detect : unit -> bool;  (** true when the toolchain catches the bug *)
}

let seeded_corpus () =
  let db = Protocol.database () in
  let with_dir spec' inv =
    let tbl, _ = Protocol.Ctrl_spec.generate spec' in
    let db = Database.replace db (Table.with_name "D" tbl) in
    not
      (Checker.Invariant.run db (Option.get (Checker.Invariant.find inv)))
        .Checker.Invariant.passed
  in
  let drop l = Protocol.Ctrl_spec.drop_scenario Protocol.Dir_controller.spec l in
  [
    {
      bug = "drop busy-retry serialization";
      caught_by = "x-request-coverage";
      detect = (fun () -> with_dir (drop Protocol.Dir_controller.busy_retry_label)
                   "x-request-coverage");
    };
    {
      bug = "grant MESI with inc instead of repl";
      caught_by = "d-ownership-transfer";
      detect =
        (fun () ->
          with_dir
            (Protocol.Ctrl_spec.map_scenario Protocol.Dir_controller.spec
               "ack-exclusive" (fun s ->
                 {
                   s with
                   emit =
                     List.map
                       (fun (c, o) ->
                         if c = "nxtdirpv" then c, Protocol.Ctrl_spec.Out "inc"
                         else c, o)
                       s.emit;
                 }))
            "d-ownership-transfer");
    };
    {
      bug = "dealloc without completing to the requester";
      caught_by = "d-dealloc-only-on-completion";
      detect =
        (fun () ->
          with_dir
            (Protocol.Ctrl_spec.map_scenario Protocol.Dir_controller.spec
               "wb-mack-compl" (fun s ->
                 { s with emit = List.filter (fun (c, _) -> c <> "locmsg") s.emit }))
            "d-dealloc-only-on-completion");
    };
    {
      bug = "drop both idone rows of Busy-readex-sd";
      caught_by = "d-busy-progress";
      detect =
        (fun () ->
          with_dir
            (Protocol.Ctrl_spec.drop_scenario (drop "readex-idone-sd-last")
               "readex-idone-sd-more")
            "d-busy-progress");
    };
    {
      bug = "node reissues requests from retry processing";
      caught_by = "deadlock check (VC0..VC3 cycle)";
      detect =
        (fun () ->
          let buggy =
            {
              Protocol.node with
              Protocol.spec =
                Protocol.Ctrl_spec.with_scenarios Protocol.Node_controller.spec
                  (Protocol.Ctrl_spec.scenarios Protocol.Node_controller.spec
                  @ [ Protocol.Node_controller.naive_retry_scenario ]);
            }
          in
          let controllers =
            List.map
              (fun c ->
                if Protocol.Ctrl_spec.name c.Protocol.spec = "N" then buggy
                else c)
              Protocol.deadlock_controllers
          in
          not
            (Checker.Deadlock.is_deadlock_free
               (Checker.Deadlock.analyze ~controllers Checker.Vcassign.debugged)));
    };
    {
      bug = "memory requests share VC0 (paper's initial assignment)";
      caught_by = "deadlock check";
      detect =
        (fun () ->
          not
            (Checker.Deadlock.is_deadlock_free
               (Checker.Deadlock.analyze Checker.Vcassign.initial)));
    };
    {
      bug = "mread shares VC4 (paper's Figure 4)";
      caught_by = "deadlock check";
      detect =
        (fun () ->
          not
            (Checker.Deadlock.is_deadlock_free
               (Checker.Deadlock.analyze Checker.Vcassign.with_vc4)));
    };
    {
      bug = "drop the sharing writeback (stale memory)";
      caught_by = "model checker (stale data)";
      detect =
        (fun () ->
          let spec' =
            Protocol.Ctrl_spec.map_scenario Protocol.Dir_controller.spec
              "read-sdata-grant" (fun s ->
                { s with emit = List.filter (fun (c, _) -> c <> "memmsg") s.emit })
          in
          let tables = Mcheck.Semantics.load_tables_with ~dir:spec' () in
          let r =
            Mcheck.Explore.run ~max_states:300_000 ~tables
              {
                Mcheck.Semantics.nodes = 2; addrs = 1;
                ops = [ "load"; "store"; "evictmod"; "evictsh" ];
                capacity = 3; io_addrs = []; lossy = false;
              }
          in
          r.Mcheck.Explore.violation <> None);
    };
  ]

let e11 () =
  section "E11" "seeded-error corpus: every bug caught before implementation";
  let corpus = seeded_corpus () in
  let caught = ref 0 in
  List.iter
    (fun s ->
      let ok, t = time s.detect in
      if ok then incr caught;
      kv "  %-48s %-36s %s (%.0f ms)\n" s.bug s.caught_by
        (if ok then "CAUGHT" else "MISSED") (t *. 1000.))
    corpus;
  kv "%d / %d seeded errors detected statically or by the baseline checker\n"
    !caught (List.length corpus)

(* ------------------------------------------------------------------ *)
(* E12: the relaxation ladder (ablation of section 4.1)                *)
(* ------------------------------------------------------------------ *)

let e12 () =
  section "E12" "which relaxation finds which dependency (ablation)";
  let v = Checker.Vcassign.with_vc4 in
  let controllers = Protocol.deadlock_controllers in
  kv "%-44s %8s %8s %8s
" "relaxation level" "deps" "edges" "cycles";
  List.iter
    (fun (label, placements, interleavings) ->
      let entries =
        Checker.Dependency.protocol_dependency ~placements ~interleavings ~v
          controllers
      in
      let vcg = Checker.Vcg.build entries in
      kv "%-44s %8d %8d %8d
" label (List.length entries)
        (Vcgraph.Digraph.num_edges vcg)
        (List.length (Checker.Vcg.cycles vcg)))
    [
      ( "exact match only (L<>H<>R)",
        [ Protocol.Topology.All_distinct ], false );
      "+ all five quad placements", Protocol.Topology.all_placements, false;
      ( "+ message-agnostic (interleavings)",
        Protocol.Topology.all_placements, true );
    ];
  kv "(our reconstruction's memory-path rows compose exactly, so the\n\
     channel-level verdict is already visible with exact matching; the\n\
     relaxations triple the witnessing dependencies - more scenarios\n\
     behind each edge for the designer to review, as in the paper)\n"

(* ------------------------------------------------------------------ *)
(* E13: footnote 2 — fixpoint composition                              *)
(* ------------------------------------------------------------------ *)

let e13 () =
  section "E13" "fixpoint composition (paper footnote: 'not needed in practice')";
  List.iter
    (fun (name, v) ->
      let base, tb = time (fun () -> Checker.Deadlock.analyze v) in
      let fixed, tf = time (fun () -> Checker.Deadlock.analyze ~fixpoint:true v) in
      kv "%-12s one round: %4d deps, %d cycles (%.0f ms);  fixpoint: %4d deps, %d cycles (%.0f ms)
"
        name
        (List.length base.Checker.Deadlock.entries)
        (List.length base.Checker.Deadlock.cycles)
        (tb *. 1000.)
        (List.length fixed.Checker.Deadlock.entries)
        (List.length fixed.Checker.Deadlock.cycles)
        (tf *. 1000.))
    [
      "V-initial", Checker.Vcassign.initial;
      "V-vc4", Checker.Vcassign.with_vc4;
      "V-debugged", Checker.Vcassign.debugged;
    ];
  kv "the closure multiplies dependency rows and (for the initial\n\
     assignment) adds a spurious extra cycle - the paper's stated reason\n\
     for abandoning transitive closure ('an excessive number of spurious\n\
     cycles'); one composition round is the right operating point\n"

(* ------------------------------------------------------------------ *)
(* E14: the dfdback feedback path, dynamically (Figure 5)              *)
(* ------------------------------------------------------------------ *)

let e14 () =
  section "E14" "ED gating and the dfdback feedback path (paper Figure 5)";
  let tables = Mcheck.Semantics.load_tables () in
  let initial =
    let st = Mcheck.Mstate.initial ~nodes:2 ~addrs:2 in
    let st =
      Option.get
        (Mcheck.Semantics.issue_op tables st ~node:0 ~addr:0
           ~op:(Mcheck.Mstate.intern "store"))
    in
    Option.get
      (Mcheck.Semantics.issue_op tables st ~node:1 ~addr:1
         ~op:(Mcheck.Mstate.intern "store"))
  in
  (* drive every delivery through the gated directory with the update
     engine stalled, then let it drain *)
  let rec drive t =
    match Mcheck.Mstate.queue_heads t.Sim.Impl_runner.base with
    | [] -> t
    | ((src, dst, cls), msg) :: _ ->
        let base =
          match Mcheck.Mstate.dequeue t.Sim.Impl_runner.base (src, dst, cls) with
          | Some (_, b) -> b
          | None -> assert false
        in
        drive (Sim.Impl_runner.deliver { t with Sim.Impl_runner.base } ~cls ~dst msg)
  in
  let rec settle n t =
    if
      Mcheck.Mstate.quiescent t.Sim.Impl_runner.base
      && t.Sim.Impl_runner.feedback = []
      || n > 100
    then t
    else
      settle (n + 1)
        (drive (Sim.Impl_runner.replay_feedback (Sim.Impl_runner.drain_update t)))
  in
  List.iter
    (fun cap ->
      let t = settle 0 (drive (Sim.Impl_runner.make ~upd_capacity:cap initial)) in
      kv "update-queue capacity %d: %s -> %s\n" cap
        (Sim.Impl_runner.stats t)
        (if Mcheck.Mstate.quiescent t.Sim.Impl_runner.base then "quiescent"
         else "STUCK"))
    [ 1; 2; 4 ];
  kv "responses deferred through the feedback path replay once the update\n";
  kv "queue drains; the final architectural state matches the unconstrained\n";
  kv "run (checked in the test suite)\n"

(* ------------------------------------------------------------------ *)
(* E15: message loss (the link controller's crcdrop row)               *)
(* ------------------------------------------------------------------ *)

let e15 () =
  section "E15" "sensitivity to message loss (LK crcdrop)";
  let tables = Mcheck.Semantics.load_tables () in
  let cfg =
    { Mcheck.Semantics.nodes = 2; addrs = 1; ops = [ "load"; "store" ];
      capacity = 3; io_addrs = []; lossy = true }
  in
  let r = Mcheck.Explore.run ~max_states:150_000 ~tables cfg in
  (match r.Mcheck.Explore.violation with
  | Some v ->
      kv "a single dropped message wedges the protocol (%d-step trace):\n"
        (List.length v.Mcheck.Explore.trace);
      List.iter (fun l -> kv "  %s\n" l) v.Mcheck.Explore.trace
  | None -> kv "unexpectedly tolerant of loss\n");
  kv "the protocol assumes reliable channels (as the paper's does); the\n";
  kv "link controller's crcdrop behaviour therefore demands link-level\n";
  kv "retransmission below the protocol - a requirement made explicit by\n";
  kv "the orphaned-transaction invariant in the model checker\n"

let run_all () =
  e1 (); e2 (); e3 (); e4 (); e5 (); e6 (); e7_e8 (); e9 (); e10 (); e11 ();
  e12 (); e13 (); e14 (); e15 ()
