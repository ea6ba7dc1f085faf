(* Differential seq-vs-par properties: every parallel code path must
   produce results structurally identical to the sequential engine at
   any domain count.  Each property draws a random workload and runs it
   pinned to 1, 2 and 4 domains; any divergence — rows, statistics,
   dependency entries, VCG edges, cycles, model-checker verdicts or the
   reachable-state set itself — fails the property. *)

open Relalg

let domains_swept = [ 1; 2; 4 ]

(* Run [f] at every domain count and check all observations agree.  The
   small-work inline fallback is off meanwhile, so a region fans out as
   soon as it has more items than its [min_chunk]. *)
let agree f =
  let inline = Par.Pool.inline_below () in
  Par.Pool.set_inline_below 0;
  Fun.protect ~finally:(fun () -> Par.Pool.set_inline_below inline)
  @@ fun () ->
  match List.map (fun d -> Par.Pool.with_domains d f) domains_swept with
  | [] -> true
  | r :: rest -> List.for_all (( = ) r) rest

let regions () =
  Obs.Metrics.count (Obs.Metrics.counter (Obs.Metrics.registry "par") "regions")

(* A differential that must also have run in parallel: the property
   runs with telemetry on, and some case must have fanned a region out. *)
let fans_out test =
  let name, speed, run = Test_seed.to_alcotest test in
  ( name,
    speed,
    fun arg ->
      Obs.Config.with_enabled @@ fun () ->
      let before = regions () in
      run arg;
      Alcotest.(check bool) "some case fanned out" true (regions () > before)
  )

(* ------------------------- solver differential ------------------------ *)

let value_pool = [ "a"; "b"; "c"; "d" ]

(* Three to five columns over dense subsets of eight values, so the
   partial rows of an extension step often reach the 128 that two
   [min_chunk:64] chunks need. *)
let spec_gen =
  let value_pool = value_pool @ [ "e"; "f"; "g"; "h" ] in
  QCheck.Gen.(
    let nonempty_sub ?(keep = 1) pool =
      let* mask =
        list_repeat (List.length pool)
          (frequency [ (keep, return true); (1, return false) ])
      in
      let chosen = List.filteri (fun i _ -> List.nth mask i) pool in
      return (if chosen = [] then [ List.hd pool ] else chosen)
    in
    let* ncols = int_range 3 5 in
    let names = List.init ncols (Printf.sprintf "c%d") in
    let* cols =
      flatten_l
        (List.mapi
           (fun i name ->
             let* dom = nonempty_sub ~keep:3 value_pool in
             return
               {
                 Solver.cname = name;
                 role = (if i < ncols - 1 then Solver.Input else Solver.Output);
                 domain = List.map (fun s -> Value.Str s) dom;
               })
           names)
    in
    let* constraints =
      flatten_l
        (List.map
           (fun name ->
             let* kind = int_bound 3 in
             let* vs = nonempty_sub value_pool in
             let* other = oneofl names in
             let e =
               match kind with
               | 0 -> Expr.True
               | 1 -> Expr.isin name vs
               | 2 -> Expr.Eq (Expr.col name, Expr.col other)
               | _ -> Expr.Not (Expr.Eq (Expr.col name, Expr.col other))
             in
             return (name, e))
           names)
    in
    return (Solver.make ~name:"rand" ~columns:cols ~constraints))

let spec_arb =
  QCheck.make spec_gen ~print:(fun s ->
      String.concat ","
        (List.map (fun c -> c.Solver.cname) (Solver.columns s)))

let observe_generation (tbl, stats) =
  ( Schema.columns (Table.schema tbl),
    Table.rows tbl,
    stats.Solver.candidates,
    stats.Solver.evaluations,
    stats.Solver.per_column )

let prop_generate_diff =
  QCheck.Test.make ~count:500
    ~name:"incremental generation identical across 1/2/4 domains" spec_arb
    (fun s -> agree (fun () -> observe_generation (Solver.generate s)))

(* ----------------------- the oracles stay sequential ------------------ *)

(* The reference oracles share no code with the domain pool: at four
   domains, with the small-work fallback off and telemetry on, none of
   them fans a region out, even over inputs big enough that a chunked
   scan, probe or extension would split them four ways. *)
let never_fan_out oracles =
  let inline = Par.Pool.inline_below () in
  Par.Pool.set_inline_below 0;
  Fun.protect ~finally:(fun () -> Par.Pool.set_inline_below inline)
  @@ fun () ->
  Par.Pool.with_domains 4 @@ fun () ->
  Obs.Config.with_enabled @@ fun () ->
  List.iter
    (fun (name, run) ->
      let before = regions () in
      run ();
      Alcotest.(check int) (name ^ " opened no parallel region") before
        (regions ()))
    oracles

let test_relational_oracles_sequential () =
  let keys = Array.of_list value_pool in
  let t =
    Table.of_rows ~name:"t"
      (Schema.of_list [ "k"; "x" ])
      (List.init 2_048 (fun i ->
           [| Value.Str keys.(i mod Array.length keys); Value.Int (i mod 10) |]))
  in
  let u =
    Table.of_rows ~name:"u"
      (Schema.of_list [ "k"; "y" ])
      (Array.to_list (Array.mapi (fun i k -> [| Value.Str k; Value.Int i |]) keys))
  in
  let db = Database.of_tables [ t; u ] in
  never_fan_out
    [
      ("Ops.select", fun () -> ignore (Ops.select (Expr.eq "k" "a") t));
      ("Ops.equi_join", fun () -> ignore (Ops.equi_join ~on:[ "k", "k" ] t u));
      ( "Sql_exec.run_query_reference",
        fun () ->
          ignore
            (Sql_exec.run_query_reference db
               (Sql_parser.parse_query
                  "SELECT x FROM t WHERE NOT k = 'b' ORDER BY x")) );
    ]

let test_solver_oracles_sequential () =
  let specs =
    QCheck.Gen.generate ~n:20
      ~rand:(Test_seed.rand_for "solver oracles never fan out")
      spec_gen
  in
  let each generate () = List.iter (fun s -> ignore (generate s)) specs in
  never_fan_out
    [
      ("Solver.generate_reference", each (Solver.generate_reference ?funcs:None));
      ( "Solver.generate_monolithic",
        each (Solver.generate_monolithic ?funcs:None) );
    ]

(* ----------------------- deadlock-check differential ------------------ *)

let assignment_gen =
  QCheck.Gen.(
    let* base = oneofl Checker.Vcassign.standard in
    let* tweaks = int_bound 3 in
    let channels =
      Checker.Vcassign.
        [ vc0; vc1; vc2; vc3; vc4 ]
    in
    let rec tweak v k =
      if k = 0 || v.Checker.Vcassign.rows = [] then return v
      else
        let* row = oneofl v.Checker.Vcassign.rows in
        let* vc = oneofl channels in
        tweak
          (Checker.Vcassign.reassign v ~msg:row.Checker.Vcassign.msg
             ~src:row.Checker.Vcassign.src ~dst:row.Checker.Vcassign.dst ~vc)
          (k - 1)
    in
    tweak base tweaks)

let nonempty_sublist_gen xs =
  QCheck.Gen.(
    let* mask = list_repeat (List.length xs) bool in
    let chosen = List.filteri (fun i _ -> List.nth mask i) xs in
    return (if chosen = [] then [ List.hd xs ] else chosen))

let deadlock_case_gen =
  QCheck.Gen.(
    let* v = assignment_gen in
    let* controllers = nonempty_sublist_gen Protocol.deadlock_controllers in
    let* placements = nonempty_sublist_gen Protocol.Topology.all_placements in
    let* interleavings = bool in
    return (v, controllers, placements, interleavings))

let observe_report (r : Checker.Deadlock.report) =
  ( List.map (fun e -> e.Checker.Dependency.dep) r.entries,
    List.map
      (fun (src, dst, label) ->
        src, dst, List.map (fun e -> e.Checker.Dependency.dep) label)
      (Vcgraph.Digraph.edges r.vcg),
    List.map (fun (c : _ Vcgraph.Cycles.cycle) -> c.nodes) r.cycles )

let prop_deadlock_diff =
  QCheck.Test.make ~count:500
    ~name:
      "dependency table, VCG edges and cycles identical across 1/2/4 domains"
    (QCheck.make deadlock_case_gen ~print:(fun (v, cs, ps, il) ->
         Printf.sprintf "%s, %d controllers, %d placements, interleavings=%b"
           v.Checker.Vcassign.name (List.length cs) (List.length ps) il))
    (fun (v, controllers, placements, interleavings) ->
      agree (fun () ->
          observe_report
            (Checker.Deadlock.analyze ~placements ~interleavings ~controllers
               v)))

(* ------------------------- mcheck differential ------------------------ *)

let mcheck_tables = lazy (Mcheck.Semantics.load_tables ())

let mcheck_case_gen =
  QCheck.Gen.(
    let* ops = nonempty_sublist_gen [ "load"; "store" ] in
    let* evictions = bool in
    let* capacity = int_range 1 3 in
    let* max_states = int_range 60 150 in
    let* symmetry = bool in
    (* the PIF procops for evictions, which fire D's wb/wback rows *)
    let ops = if evictions then ops @ [ "evictmod"; "evictsh" ] else ops in
    return
      ( { Mcheck.Semantics.nodes = 2; addrs = 1; ops; capacity; io_addrs = [];
          lossy = false },
        max_states,
        symmetry ))

(* ---------------- packed / work-stealing differential ----------------- *)

(* The stealing engine's schedule is nondeterministic, so only its
   order-free observables are comparable: for a COMPLETE exact search
   every visited state is expanded exactly once in any schedule, making
   the reachable set, explored / transitions / dedup totals, the verdict
   and the coverage bitmaps schedule-independent.  per_depth, max_depth
   and max_frontier are not, and are deliberately left out. *)
let observe_order_free (r : Mcheck.Explore.result) =
  (r.explored, r.transitions, r.dedup_hits, r.violation, r.complete, r.states)

(* The boxed oracle and production (the packed stealing engine) share
   this shape, so one differential body drives both. *)
type search =
  ?max_states:int ->
  ?symmetry:bool ->
  ?tables:Mcheck.Semantics.tables ->
  ?keep_states:bool ->
  Mcheck.Semantics.config ->
  Mcheck.Explore.result

let reference : search = Mcheck.Explore.run_reference
let packed : search = Mcheck.Explore.run ?compact_bits:None

let steal_case_gen =
  QCheck.Gen.(
    let* ops = nonempty_sublist_gen [ "load"; "store" ] in
    let* evictions = bool in
    let* capacity = int_range 1 2 in
    let* symmetry = bool in
    (* the PIF procops for evictions, which fire D's wb/wback rows *)
    let ops = if evictions then ops @ [ "evictmod"; "evictsh" ] else ops in
    return
      ( { Mcheck.Semantics.nodes = 2; addrs = 1; ops; capacity; io_addrs = [];
          lossy = false },
        symmetry ))

let print_steal_case (cfg, symmetry) =
  Printf.sprintf "ops=[%s] capacity=%d symmetry=%b"
    (String.concat ";" cfg.Mcheck.Semantics.ops)
    cfg.Mcheck.Semantics.capacity symmetry

let prop_mcheck_steal_diff =
  QCheck.Test.make ~count:40
    ~name:
      "packed steal engine at 1/2/4 domains matches the boxed reference on \
       complete searches"
    (QCheck.make steal_case_gen ~print:print_steal_case)
    (fun (cfg, symmetry) ->
      let go (search : search) =
        observe_order_free
          (search ~max_states:50_000 ~symmetry
             ~tables:(Lazy.force mcheck_tables) ~keep_states:true cfg)
      in
      let expected = Par.Pool.with_domains 1 (fun () -> go reference) in
      let _, _, _, _, complete, _ = expected in
      complete
      && List.for_all
           (fun d -> Par.Pool.with_domains d (fun () -> go packed) = expected)
           domains_swept)

(* The random cases above are 2-node, where the only non-identity
   permutation is a swap, so a tie group of three nodes never forms.
   The complete 3-node symmetric search does form them (its initial
   state ties every node) and pins the counts. *)
let test_steal_3node_symmetry () =
  let cfg =
    { Mcheck.Semantics.nodes = 3; addrs = 1; ops = [ "load"; "store" ];
      capacity = 3; io_addrs = []; lossy = false }
  in
  let go (search : search) =
    observe_order_free
      (search ~max_states:50_000 ~symmetry:true
         ~tables:(Lazy.force mcheck_tables) ~keep_states:true cfg)
  in
  let expected = Par.Pool.with_domains 1 (fun () -> go reference) in
  let explored, transitions, dedup_hits, violation, complete, states =
    expected
  in
  Alcotest.(check (list int))
    "reference explored, transitions, dedup hits"
    [ 13_618; 54_676; 41_059 ]
    [ explored; transitions; dedup_hits ];
  Alcotest.(check bool) "complete and clean" true (complete && violation = None);
  Alcotest.(check (option int))
    "one kept state per explored state" (Some explored)
    (Option.map List.length states);
  List.iter
    (fun d ->
      Alcotest.(check bool)
        (Printf.sprintf "steal at %d domains matches the reference" d)
        true
        (Par.Pool.with_domains d (fun () -> go packed) = expected))
    domains_swept

(* Truncated searches visit a schedule-dependent SUBSET, but the atomic
   ticket budget makes the expansion count itself exact: explored and the
   completeness verdict still match the reference at any domain count. *)
let prop_mcheck_steal_bounded =
  QCheck.Test.make ~count:100
    ~name:"bounded steal search expands exactly max_states at 1/2/4 domains"
    (QCheck.make mcheck_case_gen ~print:(fun (cfg, max_states, symmetry) ->
         Printf.sprintf "ops=[%s] capacity=%d max_states=%d symmetry=%b"
           (String.concat ";" cfg.Mcheck.Semantics.ops)
           cfg.Mcheck.Semantics.capacity max_states symmetry))
    (fun (cfg, max_states, symmetry) ->
      let go (search : search) =
        let r =
          search ~max_states ~symmetry ~tables:(Lazy.force mcheck_tables) cfg
        in
        r.Mcheck.Explore.explored, r.Mcheck.Explore.complete
      in
      let expected = Par.Pool.with_domains 1 (fun () -> go reference) in
      List.for_all
        (fun d -> Par.Pool.with_domains d (fun () -> go packed) = expected)
        domains_swept)

(* Coverage is recorded from inside worker domains and OR-merged; the
   merged bitmaps must be byte-identical to the sequential engine's. *)
let test_steal_coverage_matches_seq () =
  let cfg =
    { Mcheck.Semantics.nodes = 2; addrs = 1; ops = [ "load"; "store" ];
      capacity = 2; io_addrs = []; lossy = false }
  in
  let snap (search : search) d =
    Par.Pool.with_domains d (fun () ->
        Obs.Coverage.reset ();
        ignore
          (search ~max_states:50_000 ~tables:(Lazy.force mcheck_tables) cfg);
        List.map
          (fun (tc : Obs.Coverage.table_coverage) ->
            tc.name, tc.rows, tc.covered, Bytes.to_string tc.bitmap)
          (Obs.Coverage.snapshot ()))
  in
  Obs.Coverage.with_enabled (fun () ->
      let expected = snap reference 1 in
      Alcotest.(check bool)
        "sequential run covered something" true
        (List.exists (fun (_, _, covered, _) -> covered > 0) expected);
      List.iter
        (fun d ->
          Alcotest.(check bool)
            (Printf.sprintf "steal coverage bitmaps at %d domains" d)
            true
            (snap packed d = expected))
        domains_swept;
      Obs.Coverage.reset ())

(* A seeded protocol bug: the stealing path must report the SAME
   violation — kind, detail, trace and rendered sequence chart — because
   on first contact it stops and replays the search sequentially.  This
   pins the replay wiring, not just the verdict. *)
let test_steal_seeded_bug_matches_seq () =
  let spec' =
    Protocol.Ctrl_spec.drop_scenario Protocol.Dir_controller.spec
      "readex-idone-sd-last"
  in
  let tables' = Mcheck.Semantics.load_tables_with ~dir:spec' () in
  let cfg =
    { Mcheck.Semantics.nodes = 3; addrs = 1; ops = [ "load"; "store" ];
      capacity = 3; io_addrs = []; lossy = false }
  in
  let viol (search : search) d =
    Par.Pool.with_domains d (fun () ->
        (search ~max_states:200_000 ~tables:tables' cfg)
          .Mcheck.Explore.violation)
  in
  match viol reference 1 with
  | None -> Alcotest.fail "seeded hang not found by the reference engine"
  | Some v ->
      Alcotest.(check bool) "reference has a trace" true (v.trace <> []);
      let msc = Sim.Msc.render_run v.Mcheck.Explore.trace in
      List.iter
        (fun d ->
          match viol packed d with
          | None ->
              Alcotest.fail
                (Printf.sprintf "steal at %d domains missed the seeded hang" d)
          | Some w ->
              Alcotest.(check bool)
                (Printf.sprintf "identical violation at %d domains" d)
                true (w = v);
              Alcotest.(check string)
                (Printf.sprintf "identical sequence chart at %d domains" d)
                msc
                (Sim.Msc.render_run w.Mcheck.Explore.trace))
        domains_swept

(* Golden witness: the Figure 4 wedged configuration (VC2 and VC4
   mutually occupied under the paper's pre-fix assignment) survives a
   round trip through the production packing layout bit-exactly, and its
   canonical vector is stable.  Pins both the scenario and the packed
   path against drift. *)
let test_figure4_witness_packs () =
  let result, _, wedged =
    Sim.Scenario.figure4_wedged Checker.Vcassign.with_vc4
  in
  (match result with
  | Sim.Runner.Deadlock { occupancy; _ } ->
      Alcotest.(check bool) "VC2 occupied" true (List.mem_assoc "VC2" occupancy);
      Alcotest.(check bool) "VC4 occupied" true (List.mem_assoc "VC4" occupancy)
  | Sim.Runner.Quiescent _ -> Alcotest.fail "expected the Figure 4 deadlock");
  let cfg =
    { Mcheck.Semantics.nodes = 3; addrs = 2; ops = [ "load"; "store" ];
      capacity = 2; io_addrs = []; lossy = false }
  in
  let layout =
    Mcheck.Explore.layout_of_tables (Lazy.force mcheck_tables) cfg
  in
  (* the simulator can leave strings outside the model-checker vocabulary
     in flight; dictionary growth is part of what this pins *)
  let rec pack_growing l fuel =
    match Mcheck.Pack.pack l wedged with
    | v -> l, v
    | exception Mcheck.Pack.Overflow _ when fuel > 0 ->
        pack_growing (Mcheck.Pack.refresh l) (fuel - 1)
  in
  let layout, v = pack_growing layout 16 in
  Alcotest.(check bool)
    "wedged state round-trips through the packed representation" true
    (Mcheck.Pack.unpack layout v = wedged);
  Alcotest.(check bool)
    "canonical vector is reproducible" true
    (Mcheck.Pack.equal
       (Mcheck.Pack.canonical layout wedged)
       (Mcheck.Pack.canonical layout wedged))

(* The deadlock-V-vc4 seq/par regression root cause: parallel regions
   used to pay a Domain.spawn each.  Workers are resident now — once the
   pool is warm, repeated chunked regions and stealing searches must not
   spawn a single additional domain. *)
let test_pool_spawns_no_new_domains () =
  let cfg =
    { Mcheck.Semantics.nodes = 2; addrs = 1; ops = [ "load"; "store" ];
      capacity = 2; io_addrs = []; lossy = false }
  in
  Par.Pool.with_domains 4 (fun () ->
      (* warm the pool to its high-water mark — a big enough region to
         clear the small-work inline fallback and actually fan out *)
      let chunked () =
        ignore (Par.Pool.map_chunks Array.length (Array.make 512 ()))
      in
      chunked ();
      let before = Obs.Metrics.aggregate "spawn" in
      for _ = 1 to 3 do
        chunked ();
        ignore
          (Mcheck.Explore.run ~max_states:2_000
             ~tables:(Lazy.force mcheck_tables) cfg)
      done;
      Alcotest.(check int)
        "no extra Domain.spawn across repeated parallel regions" 0
        (Obs.Metrics.aggregate "spawn" - before))

let suite =
  [
    fans_out prop_generate_diff;
    Alcotest.test_case "relational oracles never fan out" `Quick
      test_relational_oracles_sequential;
    Alcotest.test_case "solver oracles never fan out" `Quick
      test_solver_oracles_sequential;
    Test_seed.to_alcotest prop_deadlock_diff;
    Test_seed.to_alcotest prop_mcheck_steal_diff;
    Test_seed.to_alcotest prop_mcheck_steal_bounded;
    Alcotest.test_case "steal coverage bitmaps merge to sequential" `Quick
      test_steal_coverage_matches_seq;
    Alcotest.test_case "steal replays seeded bug identically" `Slow
      test_steal_seeded_bug_matches_seq;
    Alcotest.test_case "resident pool spawns no new domains" `Quick
      test_pool_spawns_no_new_domains;
    Alcotest.test_case "3-node symmetric steal search matches the reference"
      `Slow test_steal_3node_symmetry;
    Alcotest.test_case "figure 4 witness packs" `Quick
      test_figure4_witness_packs;
  ]
