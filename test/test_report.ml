(* The design-review report, the fixpoint composition (paper footnote 2),
   and SQL conveniences over the protocol database. *)

let check = Alcotest.(check bool)
let check_int = Alcotest.(check int)

let contains s sub =
  let n = String.length s and m = String.length sub in
  let rec go i = i + m <= n && (String.sub s i m = sub || go (i + 1)) in
  go 0

let test_report_sections () =
  let r = Checker.Deadlock.analyze Checker.Vcassign.with_vc4 in
  let s = Checker.Report.deadlock_section r in
  check "names the assignment" true (contains s "V-vc4");
  check "lists cycles" true (contains s "VC2 -> VC4");
  let clean = Checker.Report.deadlock_section (Checker.Deadlock.analyze Checker.Vcassign.debugged) in
  check "clean verdict" true (contains clean "deadlock free")

let test_invariant_section () =
  let results = Checker.Invariant.run_all (Protocol.database ()) in
  let s = Checker.Report.invariant_section results in
  check "mentions the paper invariant" true (contains s "d-mesi-pv-one");
  check "no failures section" false (contains s "**FAIL**")

let test_full_report () =
  let s = Checker.Report.generate () in
  check "has controller table section" true (contains s "## Controller tables");
  check "has assignment" true (contains s "V-debugged");
  check "has invariants" true (contains s "## Protocol invariants");
  check "is substantial" true (String.length s > 2000)

(* --- the paper's footnote 2: fixpoint composition adds no cycles ----- *)

let test_fixpoint_footnote () =
  let base = Checker.Deadlock.analyze Checker.Vcassign.with_vc4 in
  let fixed = Checker.Deadlock.analyze ~fixpoint:true Checker.Vcassign.with_vc4 in
  (* the closure can only add dependencies ... *)
  check "fixpoint adds (or keeps) dependencies" true
    (List.length fixed.Checker.Deadlock.entries
    >= List.length base.Checker.Deadlock.entries);
  (* ... but, as the paper observed, no new channel edges or cycles *)
  check_int "same number of channel edges"
    (Vcgraph.Digraph.num_edges base.Checker.Deadlock.vcg)
    (Vcgraph.Digraph.num_edges fixed.Checker.Deadlock.vcg);
  check_int "same number of cycles"
    (List.length base.Checker.Deadlock.cycles)
    (List.length fixed.Checker.Deadlock.cycles)

let test_fixpoint_on_debugged () =
  let fixed = Checker.Deadlock.analyze ~fixpoint:true Checker.Vcassign.debugged in
  check "still deadlock free at the fixpoint" true
    (Checker.Deadlock.is_deadlock_free fixed)

(* The fixpoint is semi-naive: each round composes only the previous
   round's new dependencies.  The naive loop, every round composing the
   whole accumulated set with itself (one ["closure"] table, every
   placement and both modes) until nothing is added, must reach the same
   dependencies and the same cycles. *)
let naive_fixpoint v =
  let rec iterate acc =
    let next = Checker.Dependency.of_tables [ ("closure", acc) ] in
    if List.length next = List.length acc then acc else iterate next
  in
  iterate
    (Checker.Dependency.protocol_dependency ~v Protocol.deadlock_controllers)

let test_fixpoint_semi_naive () =
  List.iter
    (fun (v : Checker.Vcassign.t) ->
      let fixed = Checker.Deadlock.analyze ~fixpoint:true v in
      let naive = naive_fixpoint v in
      let deps entries =
        List.sort_uniq compare
          (List.map (fun (e : Checker.Dependency.entry) -> e.dep) entries)
      in
      let cycles cs =
        List.sort compare
          (List.map (fun (c : _ Vcgraph.Cycles.cycle) -> c.nodes) cs)
      in
      check (v.name ^ ": same dependencies") true
        (deps fixed.Checker.Deadlock.entries = deps naive);
      check (v.name ^ ": same cycles") true
        (cycles fixed.Checker.Deadlock.cycles
        = cycles (Checker.Vcg.cycles (Checker.Vcg.build naive))))
    Checker.Vcassign.standard

let deps entries =
  List.sort_uniq compare
    (List.map (fun (e : Checker.Dependency.entry) -> e.dep) entries)

let cycles cs =
  List.sort compare (List.map (fun (c : _ Vcgraph.Cycles.cycle) -> c.nodes) cs)

(* The same closure over sets of dependencies, sharing no code with the
   pass under test: every round joins the whole known set with itself
   through a hash index on relocated inputs, under each placement and
   mode, until a round adds nothing.  It starts from the direct
   dependencies, whose closure is the closure of any one-round table. *)
let naive_set_closure ?(placements = Protocol.Topology.all_placements)
    ?(interleavings = true) direct =
  let open Checker.Dependency in
  let known = Hashtbl.create 4096 in
  List.iter (fun d -> Hashtbl.replace known d ()) direct;
  let rec round () =
    let before = Hashtbl.length known in
    let acc = List.of_seq (Hashtbl.to_seq_keys known) in
    List.iter
      (fun placement ->
        let moved = List.sort_uniq compare (List.map (relocate placement) acc) in
        List.iter
          (fun exact ->
            let key a = (a.src, a.dst, a.vc, if exact then a.msg else "") in
            let by_input = Hashtbl.create 4096 in
            List.iter (fun d -> Hashtbl.add by_input (key d.input) d.output) moved;
            List.iter
              (fun d ->
                List.iter
                  (fun output -> Hashtbl.replace known { input = d.input; output } ())
                  (Hashtbl.find_all by_input (key d.output)))
              moved)
          (true :: (if interleavings then [ false ] else [])))
      placements;
    if Hashtbl.length known > before then round ()
  in
  round ();
  List.sort compare (List.of_seq (Hashtbl.to_seq_keys known))

(* V-initial, the assignment whose fixpoint adds a cycle, is also
   checked against the set closure, which shares no code with the
   pass. *)
let test_fixpoint_semi_naive_initial () =
  let v = Checker.Vcassign.initial in
  let fixed = Checker.Deadlock.analyze ~fixpoint:true v in
  let direct =
    List.concat_map (Checker.Dependency.individual ~v) Protocol.deadlock_controllers
  in
  let naive = naive_set_closure (deps direct) in
  check "V-initial: same dependencies" true (deps fixed.Checker.Deadlock.entries = naive);
  let as_entries =
    List.map
      (fun dep ->
        { Checker.Dependency.dep; provenance = Direct "naive"; origin = [] })
      naive
  in
  check "V-initial: same cycles" true
    (cycles fixed.Checker.Deadlock.cycles
    = cycles (Checker.Vcg.cycles (Checker.Vcg.build as_entries)))

(* Two entries whose closure needs a round to compose an old dependency
   with a new one on its right.  Under L=H=R every role relocates to
   local, so e0 . e1 = (local,local,B) -> (local,local,B) in the
   one-round pass, and e1 . (e0 . e1) = (local,local,A) ->
   (local,local,B) in the first fixpoint round.  Under L<>H<>R,
   e0 . (e1 . (e0 . e1)) = (local,remote,B) -> (local,local,B): only e0
   carries that input, and by the second round e0 is old while its
   partner is new.  A round that only extended new dependencies by the
   others would never find it. *)
let test_fixpoint_extends_old_by_new () =
  let a src dst vc = { Checker.Dependency.msg = "m"; src; dst; vc } in
  let e i input output =
    { Checker.Dependency.dep = { input; output };
      provenance = Direct "T"; origin = [ ("T", i) ] }
  in
  let direct =
    [ e 0 (a "local" "remote" "B") (a "local" "local" "A");
      e 1 (a "local" "remote" "A") (a "remote" "home" "B") ]
  in
  let placements = Protocol.Topology.[ All_distinct; All_same ] in
  let fixed =
    deps
      (Checker.Dependency.of_tables ~placements ~interleavings:false
         ~fixpoint:true [ ("T", direct) ])
  in
  check "e0 . (e1 . (e0 . e1)) found" true
    (List.mem
       { Checker.Dependency.input = a "local" "remote" "B";
         output = a "local" "local" "B" }
       fixed);
  check "semi-naive = naive" true
    (fixed = naive_set_closure ~placements ~interleavings:false (deps direct))

(* --- SQL conveniences over the real protocol database ---------------- *)

let test_count_over_protocol () =
  let db = Protocol.database () in
  let t = Relalg.Sql_exec.query db "SELECT COUNT(*) FROM D WHERE locmsg = 'retry'" in
  match (List.hd (Relalg.Table.rows t)).(0) with
  | Relalg.Value.Int n -> check "many retry rows" true (n > 500)
  | _ -> Alcotest.fail "expected an integer count"

let test_planner_over_protocol () =
  let db = Protocol.database () in
  let q =
    "SELECT inmsg, locmsg FROM D WHERE bdirlookup = 'hit' AND isrequest(inmsg) \
     AND NOT locmsg = NULL"
  in
  check "planner agrees with executor on D" true
    (Relalg.Table.equal_as_sets
       (Relalg.Oracle.execute db
          (Relalg.Plan.optimize
             (Relalg.Plan.of_query (Relalg.Sql_parser.parse_query q))))
       (Relalg.Sql_exec.query db q))

let suite =
  [
    Alcotest.test_case "deadlock section" `Quick test_report_sections;
    Alcotest.test_case "invariant section" `Quick test_invariant_section;
    Alcotest.test_case "full report" `Slow test_full_report;
    Alcotest.test_case "fixpoint footnote (paper fn. 2)" `Slow test_fixpoint_footnote;
    Alcotest.test_case "fixpoint on debugged assignment" `Slow test_fixpoint_on_debugged;
    Alcotest.test_case "count over the protocol db" `Quick test_count_over_protocol;
    Alcotest.test_case "planner over the protocol db" `Quick test_planner_over_protocol;
    Alcotest.test_case "semi-naive fixpoint = naive fixpoint" `Slow
      test_fixpoint_semi_naive;
    Alcotest.test_case "semi-naive round extends old by new" `Quick
      test_fixpoint_extends_old_by_new;
    Alcotest.test_case "semi-naive fixpoint = naive set closure on V-initial"
      `Slow test_fixpoint_semi_naive_initial;
  ]
