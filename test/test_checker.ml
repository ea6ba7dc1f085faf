(* Deadlock detection and invariant checking — the paper's section 4. *)

open Checker

let check = Alcotest.(check bool)
let check_int = Alcotest.(check int)

(* ---------------------- virtual-channel assignments ----------------- *)

let test_vcassign_shape () =
  check "readex rides VC0" true
    (Vcassign.lookup Vcassign.with_vc4 ~msg:"readex" ~src:"local" ~dst:"home"
    = Some "VC0");
  check "sinv rides VC1" true
    (Vcassign.lookup Vcassign.with_vc4 ~msg:"sinv" ~src:"home" ~dst:"remote"
    = Some "VC1");
  check "idone rides VC2" true
    (Vcassign.lookup Vcassign.with_vc4 ~msg:"idone" ~src:"remote" ~dst:"home"
    = Some "VC2");
  check "data rides VC3" true
    (Vcassign.lookup Vcassign.with_vc4 ~msg:"data" ~src:"home" ~dst:"local"
    = Some "VC3");
  check "mread rides VC4 before the fix" true
    (Vcassign.lookup Vcassign.with_vc4 ~msg:"mread" ~src:"home" ~dst:"home"
    = Some "VC4");
  check "mread rides VC0 initially" true
    (Vcassign.lookup Vcassign.initial ~msg:"mread" ~src:"home" ~dst:"home"
    = Some "VC0");
  check "mread dedicated after the fix" true
    (Vcassign.lookup Vcassign.debugged ~msg:"mread" ~src:"home" ~dst:"home"
    = None);
  Alcotest.(check (list string)) "channels of the initial assignment"
    [ "VC0"; "VC1"; "VC2"; "VC3" ]
    (Vcassign.channels Vcassign.initial)

let test_vcassign_table_roundtrip () =
  let t = Vcassign.to_table Vcassign.with_vc4 in
  check_int "4 columns" 4 (Relalg.Table.arity t);
  let back = Vcassign.of_table t in
  check "roundtrip preserves lookups" true
    (List.for_all
       (fun (a : Vcassign.assignment) ->
         Vcassign.lookup back ~msg:a.msg ~src:a.src ~dst:a.dst = Some a.vc)
       Vcassign.with_vc4.rows)

(* A table that is not an assignment is an error, never a smaller
   assignment: a dropped row would silently remove a channel. *)
let test_vcassign_rejects_bad_tables () =
  let rejects what csv expected =
    match Vcassign.of_table (Relalg.Csv.of_string ~name:"v" csv) with
    | _ -> Alcotest.failf "%s: accepted" what
    | exception Vcassign.Invalid e ->
        check what true (e = expected);
        check (what ^ ": one line") false
          (String.contains (Vcassign.error_to_string e) '\n')
  in
  rejects "wrong header" "a,b,c,d\nread,local,home,VC0\n"
    (Vcassign.Wrong_columns [ "a"; "b"; "c"; "d" ]);
  rejects "header only" "m,s,d,v\n" Vcassign.No_rows;
  (* errors name file lines: the header is line 1 *)
  rejects "empty cell" "m,s,d,v\nread,local,home,VC0\nwb,local,home,\n"
    (Vcassign.Non_string_cell { line = 3; column = "v"; value = Relalg.Value.Null });
  rejects "number cell" "m,s,d,v\nread,local,home,4\n"
    (Vcassign.Non_string_cell { line = 2; column = "v"; value = Relalg.Value.Int 4 });
  (* [lookup] reads the first matching row, so a second one would be dead *)
  rejects "duplicate triple"
    "m,s,d,v\nread,local,home,VC0\nmread,home,home,VC2\nmread,home,home,VC4\n"
    (Vcassign.Duplicate
       { first = 3; second = 4; msg = "mread"; src = "home"; dst = "home" });
  (* the paper's Figure-4 file with a second mread row inserted above
     line 38: the message names the lines an editor shows.  `dune
     runtest` runs the suite in test/, `dune exec` from the root *)
  let path =
    List.find Sys.file_exists [ "../examples/vc2_vc4"; "examples/vc2_vc4" ]
  in
  let lines =
    String.split_on_char '\n'
      (In_channel.with_open_text path In_channel.input_all)
  in
  let csv =
    String.concat "\n"
      (List.filteri (fun i _ -> i < 37) lines
      @ ("mread,home,home,VC2" :: List.filteri (fun i _ -> i >= 37) lines))
  in
  check "line 38 is the original mread row" true
    (List.nth lines 37 = "mread,home,home,VC4");
  match Vcassign.of_table (Relalg.Csv.of_string ~name:"v" csv) with
  | _ -> Alcotest.fail "duplicate in the Figure-4 file: accepted"
  | exception Vcassign.Invalid e ->
      Alcotest.(check string)
        "duplicate in the Figure-4 file"
        "lines 38 and 39 both assign (mread, home, home)"
        (Vcassign.error_to_string e)

(* A quoted cell may span lines, so a row's file line is not its index
   + 2: every message names the line its row starts on. *)
let test_vcassign_multiline_cell_lines () =
  let head = "m,s,d,v\n\"read\nx\",local,home,VC0\n" in
  let dup = head ^ "mread,home,home,VC2\nmread,home,home,VC4\n" in
  let _, lines = Relalg.Csv.of_string_lines ~name:"v" dup in
  Alcotest.(check (array int)) "rows start on lines 2, 4 and 5" [| 2; 4; 5 |] lines;
  (match Vcassign.of_csv ~name:"v" dup with
  | _ -> Alcotest.fail "duplicate after a two-line cell: accepted"
  | exception Vcassign.Invalid e ->
      Alcotest.(check string) "duplicate names lines 4 and 5"
        "lines 4 and 5 both assign (mread, home, home)"
        (Vcassign.error_to_string e));
  match Vcassign.of_csv ~name:"v" (dup ^ "wb,local,home\n") with
  | _ -> Alcotest.fail "short row: accepted"
  | exception Relalg.Csv.Csv_error { line; message } ->
      Alcotest.(check (pair int string)) "short row on line 6"
        (6, "expected 4 cells, got 3") (line, message)

let test_vcassign_edit () =
  let v = Vcassign.reassign Vcassign.initial ~msg:"mread" ~src:"home" ~dst:"home" ~vc:"VC9" in
  check "reassign" true
    (Vcassign.lookup v ~msg:"mread" ~src:"home" ~dst:"home" = Some "VC9");
  let v = Vcassign.remove v ~msg:"mread" ~src:"home" ~dst:"home" in
  check "remove" true (Vcassign.lookup v ~msg:"mread" ~src:"home" ~dst:"home" = None)

(* ---------------------------- dependencies -------------------------- *)

let test_individual_dependencies () =
  let deps = Dependency.individual ~v:Vcassign.with_vc4 Protocol.memory in
  (* every memory-table row: in on VC4, out on VC2 *)
  check "memory deps exist" true (deps <> []);
  check "memory: VC4 in, VC2 out" true
    (List.for_all
       (fun (e : Dependency.entry) ->
         e.dep.input.vc = "VC4" && e.dep.output.vc = "VC2")
       deps)

let test_pif_has_no_dependencies () =
  (* transactions originate at the PIF: no input channel, no deps *)
  check_int "PIF contributes nothing" 0
    (List.length (Dependency.individual ~v:Vcassign.with_vc4 Protocol.pif))

let test_relocate () =
  let dep =
    {
      Dependency.input = { msg = "idone"; src = "remote"; dst = "home"; vc = "VC2" };
      output = { msg = "mread"; src = "home"; dst = "home"; vc = "VC4" };
    }
  in
  let dep' = Dependency.relocate Protocol.Topology.Hr_same dep in
  Alcotest.(check string) "paper's R2': remote rewritten to home" "home"
    dep'.Dependency.input.src;
  Alcotest.(check string) "channel unchanged" "VC2" dep'.Dependency.input.vc

let test_composition_modes () =
  let mk im isrc idst ivc om osrc odst ovc =
    {
      Dependency.dep =
        {
          input = { msg = im; src = isrc; dst = idst; vc = ivc };
          output = { msg = om; src = osrc; dst = odst; vc = ovc };
        };
      provenance = Dependency.Direct "T";
      origin = [ ("T", 0) ];
    }
  in
  (* the paper's R1 (memory) and R2 (directory) *)
  let r1 = mk "wb" "home" "home" "VC4" "compl" "home" "home" "VC2" in
  let r2 = mk "idone" "remote" "home" "VC2" "mread" "home" "home" "VC4" in
  let composed ~placement ~interleavings =
    List.filter_map
      (fun (e : Dependency.entry) ->
        match e.provenance with
        | Dependency.Composed { first = "M"; second = "D"; _ } -> Some e.dep
        | _ -> None)
      (Dependency.of_tables ~placements:[ placement ] ~interleavings
         [ ("M", [ r1 ]); ("D", [ r2 ]) ])
  in
  (* exact match fails: compl <> idone and remote <> home *)
  check_int "no exact composition" 0
    (List.length
       (composed ~placement:Protocol.Topology.All_distinct
          ~interleavings:false));
  (* under L<>H=R with messages ignored, R1 . R2' yields the paper's R3 *)
  match composed ~placement:Protocol.Topology.Hr_same ~interleavings:true with
  | [ r3 ] ->
      Alcotest.(check string) "R3 closes on VC4" "VC4" r3.Dependency.output.vc;
      Alcotest.(check string) "R3 input stays wb on VC4" "VC4"
        r3.Dependency.input.vc
  | l -> Alcotest.failf "R3: %d M . D compositions" (List.length l)

(* Composition as the nested loop it stands for: every entry of [t1]
   against every entry of [t2], both relocated under [placement]. *)
let nested_compose ~ignore_messages ~placement (n1, t1) (n2, t2) =
  let reloc (e : Dependency.entry) =
    (Dependency.relocate placement e.dep, e.origin)
  in
  let exact = not ignore_messages in
  let provenance =
    Dependency.Composed { first = n1; second = n2; placement; exact }
  in
  List.concat_map
    (fun ((r : Dependency.dep), ro) ->
      List.filter_map
        (fun ((s : Dependency.dep), so) ->
          let o = r.output and i = s.input in
          if o.src = i.src && o.dst = i.dst && o.vc = i.vc
             && (ignore_messages || o.msg = i.msg)
          then
            let so = List.filter (fun x -> not (List.mem x ro)) so in
            let dep = { Dependency.input = r.input; output = s.output } in
            Some { Dependency.dep; provenance; origin = ro @ so }
          else None)
        (List.map reloc t2))
    (List.map reloc t1)

let gen_entry name =
  let open QCheck.Gen in
  let role = oneofl [ "local"; "home"; "remote" ] in
  let assign =
    let* msg = oneofl [ "a"; "b" ] and* src = role and* dst = role
    and* vc = oneofl [ "VC0"; "VC1" ] in
    return { Dependency.msg; src; dst; vc }
  in
  let origin = pair (oneofl [ "T"; "U" ]) (int_bound 3) in
  let* input = assign and* output = assign
  and* origin = list_size (int_range 1 2) origin in
  let dep = { Dependency.input; output } in
  return { Dependency.dep; provenance = Direct name; origin }

let dedup_entries entries =
  let seen = Hashtbl.create 256 in
  List.filter
    (fun (e : Dependency.entry) ->
      if Hashtbl.mem seen e.dep then false
      else begin
        Hashtbl.add seen e.dep ();
        true
      end)
    entries

(* [Dependency.of_tables] as nested loops: each table deduplicated, then
   every placement, mode, ordered pair of tables and pair of entries,
   keeping the first entry of each dependency. *)
let nested_loop_tables ~placements ~interleavings tables =
  let named = List.map (fun (n, es) -> (n, dedup_entries es)) tables in
  let composed =
    List.concat_map
      (fun placement ->
        List.concat_map
          (fun ignore_messages ->
            List.concat_map
              (fun t1 ->
                List.concat_map
                  (nested_compose ~ignore_messages ~placement t1)
                  named)
              named)
          (if interleavings then [ false; true ] else [ false ]))
      placements
  in
  dedup_entries (List.concat_map snd named @ composed)

(* Composition runs on the planner's hash join.  Against a nested loop
   written out here, on two tables whose roles, channels and messages
   collide, it must return the same entries in the same order with the
   same origins. *)
let prop_compose_matches_nested_loop =
  let open QCheck.Gen in
  let gen =
    quad
      (list_size (int_bound 12) (gen_entry "T"))
      (list_size (int_range 9 24) (gen_entry "U"))
      (oneofl Protocol.Topology.all_placements)
      bool
  in
  QCheck.Test.make ~count:300 ~name:"hash-bucket compose = nested loop"
    (QCheck.make gen ~print:(fun (t1, t2, p, il) ->
         Printf.sprintf "|t1|=%d |t2|=%d %s interleavings=%b"
           (List.length t1) (List.length t2)
           (Protocol.Topology.placement_to_string p) il))
    (fun (t1, t2, placement, interleavings) ->
      let tables = [ ("T", t1); ("U", t2) ] in
      Dependency.of_tables ~placements:[ placement ] ~interleavings tables
      = nested_loop_tables ~placements:[ placement ] ~interleavings tables)

(* With several tables, one join per mode stands for the nested loop
   over ordered table pairs: left table, right table, then their
   entries. *)
let prop_compose_tables_in_pair_order =
  let open QCheck.Gen in
  let tables =
    let* n = int_range 2 6 in
    flatten_l
      (List.init n (fun i ->
           let name = Printf.sprintf "T%d" i in
           map
             (fun es -> (name, es))
             (list_size (int_bound 8) (gen_entry name))))
  in
  let gen = triple tables (oneofl Protocol.Topology.all_placements) bool in
  QCheck.Test.make ~count:200
    ~name:"multi-table compose = pairwise nested loops"
    (QCheck.make gen ~print:(fun (ts, p, il) ->
         Printf.sprintf "%d tables %s interleavings=%b" (List.length ts)
           (Protocol.Topology.placement_to_string p) il))
    (fun (tables, placement, interleavings) ->
      Dependency.of_tables ~placements:[ placement ] ~interleavings tables
      = nested_loop_tables ~placements:[ placement ] ~interleavings tables)

(* The protocol dependency table as nested loops: the deduplicated
   individual tables, then every placement, both matching modes, every
   ordered pair of controller tables and every pair of their entries,
   keeping the first provenance of each dependency. *)
let nested_loop_dependency ~v controllers =
  let named =
    List.map
      (fun c ->
        ( Protocol.Ctrl_spec.name c.Protocol.spec,
          dedup_entries (Dependency.individual ~v c) ))
      controllers
  in
  let composed =
    List.concat_map
      (fun placement ->
        List.concat_map
          (fun ignore_messages ->
            List.concat_map
              (fun t1 ->
                List.concat_map
                  (nested_compose ~ignore_messages ~placement t1)
                  named)
              named)
          [ false; true ])
      Protocol.Topology.all_placements
  in
  dedup_entries (List.concat_map snd named @ composed)

(* Dependency, provenance, origin and order all match the nested loops
   on the three assignments, whichever side the hash join builds on. *)
let test_dependency_matches_nested_loop () =
  let controllers = Protocol.deadlock_controllers in
  List.iter
    (fun build ->
      Test_env.with_env "ASURA_PLAN_BUILD" build (fun () ->
          List.iter
            (fun (v : Vcassign.t) ->
              check
                (Printf.sprintf "%s, ASURA_PLAN_BUILD=%S" v.name build)
                true
                (Dependency.protocol_dependency ~v controllers
                = nested_loop_dependency ~v controllers))
            Vcassign.standard))
    [ ""; "left"; "right" ]

(* The pass drops a duplicate match before it builds anything, and only
   joins the first entry of each (relocated output, relocated input)
   class.  On tables whose entries collide in every field it
   must still keep each dependency's first match, with its provenance
   and origin, in the nested loops' order. *)
let prop_of_tables_matches_nested_loops =
  let open QCheck.Gen in
  let gen =
    let* n = int_range 1 3 in
    let* tables =
      flatten_l
        (List.init n (fun i ->
             let name = Printf.sprintf "T%d" i in
             map (fun es -> (name, es)) (list_size (int_bound 10) (gen_entry name))))
    and* keep = list_repeat 5 bool
    and* interleavings = bool in
    let placements =
      List.filteri (fun i _ -> List.nth keep i) Protocol.Topology.all_placements
    in
    return (tables, placements, interleavings)
  in
  QCheck.Test.make ~count:300 ~name:"deduplicating pass = nested loops"
    (QCheck.make gen ~print:(fun (ts, ps, il) ->
         Printf.sprintf "%d tables of %s, %s, interleavings=%b"
           (List.length ts)
           (String.concat "/" (List.map (fun (_, es) -> string_of_int (List.length es)) ts))
           (String.concat "," (List.map Protocol.Topology.placement_to_string ps))
           il))
    (fun (tables, placements, interleavings) ->
      Dependency.of_tables ~placements ~interleavings tables
      = nested_loop_tables ~placements ~interleavings tables)

(* Per placement, compose_new counts the matches that added a
   dependency: at most compose_matches, and summed over the placements
   exactly the entries composition added to the direct ones. *)
let test_compose_counters () =
  Obs.Metrics.reset ();
  let entries =
    Obs.Config.with_enabled (fun () ->
        Dependency.protocol_dependency ~v:Vcassign.initial
          Protocol.deadlock_controllers)
  in
  let count name =
    Obs.Metrics.count (Obs.Metrics.counter (Obs.Metrics.registry "checker") name)
  in
  let added =
    List.fold_left
      (fun sum p ->
        let p = Protocol.Topology.placement_to_string p in
        let fresh = count ("compose_new." ^ p) in
        check (p ^ ": new <= matches") true
          (fresh <= count ("compose_matches." ^ p));
        sum + fresh)
      0 Protocol.Topology.all_placements
  in
  Obs.Metrics.reset ();
  let composed =
    List.filter
      (fun (e : Dependency.entry) ->
        match e.provenance with Dependency.Composed _ -> true | Direct _ -> false)
      entries
  in
  check_int "new keys = composed entries" (List.length composed) added;
  check "composition added some" true (added > 0)

(* Per placement, the nested loops' matches (every ordered pair of
   deduplicated individual tables, both modes) and their new
   dependencies (the composed entries of [nested_loop_dependency] under
   that placement).  The pass counts a match as one joined item pair
   weighted by the entries each item stands for, so these pin that
   bookkeeping. *)
let nested_loop_counts ~v controllers placement =
  let named =
    List.map
      (fun c ->
        ( Protocol.Ctrl_spec.name c.Protocol.spec,
          dedup_entries (Dependency.individual ~v c) ))
      controllers
  in
  let matches =
    List.fold_left
      (fun sum ignore_messages ->
        List.fold_left
          (fun sum t1 ->
            List.fold_left
              (fun sum t2 ->
                sum
                + List.length (nested_compose ~ignore_messages ~placement t1 t2))
              sum named)
          sum named)
      0 [ false; true ]
  in
  let added =
    List.length
      (List.filter
         (fun (e : Dependency.entry) ->
           match e.provenance with
           | Dependency.Composed { placement = p; _ } -> p = placement
           | Direct _ -> false)
         (nested_loop_dependency ~v controllers))
  in
  (matches, added)

let test_compose_counts_match_nested_loop () =
  let controllers = Protocol.deadlock_controllers in
  let count name =
    Obs.Metrics.count (Obs.Metrics.counter (Obs.Metrics.registry "checker") name)
  in
  List.iter
    (fun (v : Vcassign.t) ->
      Obs.Metrics.reset ();
      ignore
        (Obs.Config.with_enabled (fun () ->
             Dependency.protocol_dependency ~v controllers)
          : Dependency.entry list);
      let counted =
        List.map
          (fun p ->
            let p = Protocol.Topology.placement_to_string p in
            (count ("compose_matches." ^ p), count ("compose_new." ^ p)))
          Protocol.Topology.all_placements
      in
      Obs.Metrics.reset ();
      List.iter2
        (fun p (matches, added) ->
          let want_matches, want_added = nested_loop_counts ~v controllers p in
          let p = Protocol.Topology.placement_to_string p in
          check_int (Printf.sprintf "%s: compose_matches.%s" v.name p)
            want_matches matches;
          check_int (Printf.sprintf "%s: compose_new.%s" v.name p) want_added
            added)
        Protocol.Topology.all_placements counted)
    Vcassign.standard

let test_dependency_table_form () =
  let entries =
    Dependency.protocol_dependency ~v:Vcassign.with_vc4
      Protocol.deadlock_controllers
  in
  let t = Dependency.to_table ~name:"pdep" entries in
  check_int "eight columns" 8 (Relalg.Table.arity t);
  check_int "one row per dependency" (List.length entries)
    (Relalg.Table.cardinality t);
  check "no duplicate dependencies" true
    (Relalg.Table.cardinality (Relalg.Oracle.distinct t)
    = Relalg.Table.cardinality t)

(* ------------------------------ deadlock ---------------------------- *)

let narrative = lazy (Deadlock.narrative ())

let report n = snd (List.nth (Lazy.force narrative) n)

let test_initial_assignment_cycles () =
  let r = report 0 in
  check "several cycles" true (List.length r.Deadlock.cycles >= 3);
  check "not deadlock free" false (Deadlock.is_deadlock_free r);
  (* most involve the directory and memory controllers at home: every
     cycle passes through a channel carrying home-home traffic *)
  check "VC0 self-dependency found" true
    (List.exists
       (fun (c : _ Vcgraph.Cycles.cycle) -> c.nodes = [ "VC0" ])
       r.Deadlock.cycles)

let test_vc4_assignment_finds_figure4 () =
  let r = report 1 in
  let cycles = r.Deadlock.cycles in
  check_int "exactly the three VC2/VC4 cycles" 3 (List.length cycles);
  check "VC2 <-> VC4 cycle" true
    (List.exists
       (fun (c : _ Vcgraph.Cycles.cycle) ->
         List.sort compare c.nodes = [ "VC2"; "VC4" ])
       cycles);
  check "VC2 self-loop from composition" true
    (List.exists (fun (c : _ Vcgraph.Cycles.cycle) -> c.nodes = [ "VC2" ]) cycles);
  check "VC4 self-loop from composition (the paper's R3)" true
    (List.exists (fun (c : _ Vcgraph.Cycles.cycle) -> c.nodes = [ "VC4" ]) cycles);
  check "every cycle involves VC2 or VC4" true
    (List.for_all
       (fun (c : _ Vcgraph.Cycles.cycle) ->
         List.mem "VC2" c.nodes || List.mem "VC4" c.nodes)
       cycles)

let test_debugged_assignment_clean () =
  let r = report 2 in
  check "deadlock free" true (Deadlock.is_deadlock_free r);
  check "summary says so" true
    (let s = Deadlock.summary r in
     let rec contains i =
       i + 9 <= String.length s && (String.sub s i 9 = "no cycles" || contains (i + 1))
     in
     contains 0)

let test_placement_relaxation_matters () =
  (* without placement relaxation and interleavings, fewer dependencies *)
  let strict =
    Deadlock.analyze ~placements:[ Protocol.Topology.All_distinct ]
      ~interleavings:false Vcassign.with_vc4
  in
  let full = report 1 in
  check "relaxations add dependencies" true
    (List.length strict.Deadlock.entries < List.length full.Deadlock.entries)

let test_cycles_through () =
  let r = report 1 in
  check "cycles through VC4" true (Deadlock.cycles_through r "VC4" <> []);
  check_int "no cycles through VC3" 0 (List.length (Deadlock.cycles_through r "VC3"))

(* ------------------------------ invariants -------------------------- *)

let db = lazy (Protocol.database ())

let test_all_invariants_pass () =
  let results = Invariant.run_all (Lazy.force db) in
  check "about 50 invariants" true (List.length results >= 50);
  Alcotest.(check (list string)) "no failures" []
    (List.map
       (fun (r : Invariant.result) -> r.invariant.id)
       (Invariant.failures results))

let test_invariant_lookup () =
  check "find by id" true (Invariant.find "d-mesi-pv-one" <> None);
  check "unknown id" true (Invariant.find "nope" = None)

let run_with_dir_spec spec' invariant_id =
  let tbl, _ = Protocol.Ctrl_spec.generate spec' in
  let db =
    Relalg.Database.replace (Lazy.force db)
      (Relalg.Table.with_name "D" tbl)
  in
  Invariant.run db (Option.get (Invariant.find invariant_id))

(* Seeded bugs: each mutation must be caught by the named invariant —
   experiment E11, early error detection before any implementation. *)

let test_seeded_missing_retry () =
  (* drop the serialization scenario: requests race ahead of busy lines *)
  let spec' =
    Protocol.Ctrl_spec.drop_scenario Protocol.Dir_controller.spec
      Protocol.Dir_controller.busy_retry_label
  in
  let r = run_with_dir_spec spec' "x-request-coverage" in
  check "coverage invariant catches missing retry rows" false r.Invariant.passed

let test_seeded_wrong_pv () =
  (* corrupt the ownership handover: MESI granted with inc instead of repl *)
  let spec' =
    Protocol.Ctrl_spec.map_scenario Protocol.Dir_controller.spec "ack-exclusive"
      (fun s ->
        {
          s with
          emit =
            List.map
              (fun (c, o) ->
                if c = "nxtdirpv" then c, Protocol.Ctrl_spec.Out "inc" else c, o)
              s.emit;
        })
  in
  let r = run_with_dir_spec spec' "d-ownership-transfer" in
  check "ownership invariant catches wrong pv op" false r.Invariant.passed

let test_seeded_dropped_response_row () =
  (* remove the last-idone transition: Busy-readex-sd can hang *)
  let spec' =
    Protocol.Ctrl_spec.drop_scenario Protocol.Dir_controller.spec
      "readex-idone-sd-last"
  in
  let r = run_with_dir_spec spec' "d-busy-progress" in
  (* still has the -more row, so progress holds; determinism and busy
     lifecycle hold too -- but the model checker finds the hang (see
     test_mcheck).  Here we drop BOTH idone rows instead. *)
  ignore r;
  let spec' =
    Protocol.Ctrl_spec.drop_scenario spec' "readex-idone-sd-more"
  in
  let r = run_with_dir_spec spec' "d-busy-progress" in
  check "progress invariant catches unconsumable busy state" false
    r.Invariant.passed;
  (* the probes go through the bdirst index; the witnesses must not
     depend on that *)
  let witnesses r =
    List.map
      (fun row -> Relalg.Value.to_string row.(0))
      (Relalg.Table.rows r.Invariant.violations)
  in
  let want = [ "Busy-readex-sd can hang: no snoop response row" ] in
  Alcotest.(check (list string)) "witnesses" want (witnesses r)

let test_seeded_leaky_dealloc () =
  (* dealloc without completing to the requester *)
  let spec' =
    Protocol.Ctrl_spec.map_scenario Protocol.Dir_controller.spec
      "wb-mack-compl"
      (fun s ->
        { s with emit = List.filter (fun (c, _) -> c <> "locmsg") s.emit })
  in
  let r = run_with_dir_spec spec' "d-dealloc-only-on-completion" in
  check "completion invariant catches silent dealloc" false r.Invariant.passed

(* Like [run_with_dir_spec], but edits D's rows directly, so the table in
   the database differs from the one generated from the spec. *)
let run_with_d_rows edit invariant_id =
  let db = Lazy.force db in
  let d = Relalg.Database.find db "D" in
  let set row col v =
    let row = Array.copy row in
    row.(Relalg.Schema.index (Relalg.Table.schema d) col) <- Relalg.Value.str v;
    row
  in
  let d' =
    Relalg.Table.of_rows ~name:"D" (Relalg.Table.schema d)
      (edit (Relalg.Table.cell d) set (Relalg.Table.rows d))
  in
  Invariant.run
    (Relalg.Database.replace db d')
    (Option.get (Invariant.find invariant_id))

let witnesses (r : Invariant.result) =
  List.map
    (fun row -> Relalg.Value.to_string row.(0))
    (Relalg.Table.rows r.Invariant.violations)

let test_seeded_duplicate_inputs () =
  (* a copy of row 0 answering with a different locmsg: D is no longer a
     function of its inputs, and the check must see the edited table *)
  let r =
    run_with_d_rows
      (fun cell set rows ->
        let row0 = List.hd rows in
        let retry = cell row0 "locmsg" = Relalg.Value.str "retry" in
        let other = if retry then "data" else "retry" in
        rows @ [ set row0 "locmsg" other ])
      "x-deterministic"
  in
  check "determinism catches the duplicate input row" false r.Invariant.passed;
  Alcotest.(check (list string)) "witness"
    [ "D: duplicate inputs (read, local, home, reqq, -, -, -, -, Busy-read-sd, -, -, hit)" ]
    (witnesses r)

let test_seeded_family_crossing_update () =
  (* the first busy update row moves its entry into another family *)
  let crossed = ref false in
  let r =
    run_with_d_rows
      (fun cell set rows ->
        List.map
          (fun row ->
            if (not !crossed) && cell row "bdirop" = Relalg.Value.str "update"
            then begin
              crossed := true;
              let family =
                String.split_on_char '-'
                  (Relalg.Value.to_string (cell row "bdirst"))
              in
              let to_ =
                if List.nth_opt family 1 = Some "read" then "Busy-readex-s"
                else "Busy-read-s"
              in
              set row "nxtbdirst" to_
            end
            else row)
          rows)
      "d-busy-family-preserved"
  in
  check "family check catches the crossing update" false r.Invariant.passed;
  Alcotest.(check (list string)) "witness"
    [ "update Busy-read-s -> Busy-readex-s crosses families" ]
    (witnesses r)

let test_seeded_naive_retry_reissue () =
  (* the node-controller bug: reissue on retry from response processing
     creates a VC3 -> VC0 dependency closing the request/response loop *)
  let buggy_node =
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
        if Protocol.Ctrl_spec.name c.Protocol.spec = "N" then buggy_node else c)
      Protocol.deadlock_controllers
  in
  let clean = Deadlock.analyze ~controllers Vcassign.debugged in
  check "naive retry reissue creates a cycle" false
    (Deadlock.is_deadlock_free clean);
  check "the cycle passes through VC0 and VC3" true
    (List.exists
       (fun (c : _ Vcgraph.Cycles.cycle) ->
         List.mem "VC0" c.nodes && List.mem "VC3" c.nodes)
       clean.Deadlock.cycles)

let test_invariant_summary_format () =
  let results = Invariant.run_all (Lazy.force db) in
  let s = Invariant.summary results in
  check "mentions the tally" true
    (let needle = Printf.sprintf "%d invariants checked" (List.length results) in
     let rec contains i =
       i + String.length needle <= String.length s
       && (String.sub s i (String.length needle) = needle || contains (i + 1))
     in
     contains 0)

let suite =
  [
    Alcotest.test_case "assignment shape" `Quick test_vcassign_shape;
    Alcotest.test_case "assignment table roundtrip" `Quick test_vcassign_table_roundtrip;
    Alcotest.test_case "assignment editing" `Quick test_vcassign_edit;
    Alcotest.test_case "assignment tables are validated" `Quick
      test_vcassign_rejects_bad_tables;
    Alcotest.test_case "CSV rows are named by their first file line" `Quick
      test_vcassign_multiline_cell_lines;
    Alcotest.test_case "individual dependency tables" `Quick test_individual_dependencies;
    Alcotest.test_case "PIF originates, never depends" `Quick test_pif_has_no_dependencies;
    Alcotest.test_case "placement relocation (R2 -> R2')" `Quick test_relocate;
    Alcotest.test_case "composition modes (R1 . R2' = R3)" `Quick test_composition_modes;
    Test_seed.to_alcotest prop_compose_matches_nested_loop;
    Alcotest.test_case "dependency table form" `Quick test_dependency_table_form;
    Test_seed.to_alcotest prop_of_tables_matches_nested_loops;
    Alcotest.test_case "compose_new counts the added dependencies" `Quick
      test_compose_counters;
    Alcotest.test_case "compose counters = nested-loop counts" `Slow
      test_compose_counts_match_nested_loop;
    Alcotest.test_case "initial assignment: several cycles" `Slow test_initial_assignment_cycles;
    Alcotest.test_case "VC4 assignment: the Figure 4 cycle" `Slow test_vc4_assignment_finds_figure4;
    Alcotest.test_case "debugged assignment: clean" `Slow test_debugged_assignment_clean;
    Alcotest.test_case "relaxation adds dependencies" `Slow test_placement_relaxation_matters;
    Alcotest.test_case "cycles through a channel" `Slow test_cycles_through;
    Alcotest.test_case "all invariants pass" `Quick test_all_invariants_pass;
    Alcotest.test_case "invariant lookup" `Quick test_invariant_lookup;
    Alcotest.test_case "seeded: missing retry" `Quick test_seeded_missing_retry;
    Alcotest.test_case "seeded: wrong pv op" `Quick test_seeded_wrong_pv;
    Alcotest.test_case "seeded: dropped response rows" `Quick test_seeded_dropped_response_row;
    Alcotest.test_case "seeded: leaky dealloc" `Quick test_seeded_leaky_dealloc;
    Alcotest.test_case "seeded: duplicate input row" `Quick
      test_seeded_duplicate_inputs;
    Alcotest.test_case "seeded: family-crossing update" `Quick
      test_seeded_family_crossing_update;
    Alcotest.test_case "seeded: naive retry reissue" `Slow test_seeded_naive_retry_reissue;
    Alcotest.test_case "summary format" `Quick test_invariant_summary_format;
    Test_seed.to_alcotest prop_compose_tables_in_pair_order;
    Alcotest.test_case "dependency table = nested loops, either build side"
      `Slow test_dependency_matches_nested_loop;
  ]
