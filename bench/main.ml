(* Benchmark entry point: first the experiment harness that regenerates
   every table/figure of the paper (E1-E11), then Bechamel
   micro-benchmarks of each pipeline stage. *)

open Bechamel
open Toolkit

let dir_solver_spec =
  lazy (Protocol.Ctrl_spec.to_solver_spec Protocol.Dir_controller.spec)

let db = lazy (Protocol.database ())
let mcheck_tables = lazy (Mcheck.Semantics.load_tables ())

(* Each benchmark regenerates one of the paper's artifacts. *)
let benchmarks =
  [
    (* E2/E3: controller-table generation *)
    Test.make ~name:"generate-D-incremental"
      (Staged.stage (fun () ->
           ignore (Relalg.Solver.generate (Lazy.force dir_solver_spec))));
    Test.make ~name:"generate-M-monolithic"
      (Staged.stage (fun () ->
           ignore
             (Relalg.Solver.generate_monolithic
                (Protocol.Ctrl_spec.to_solver_spec Protocol.Mem_controller.spec))));
    (* E5: the three deadlock analyses *)
    Test.make ~name:"deadlock-V-initial"
      (Staged.stage (fun () ->
           ignore (Checker.Deadlock.analyze Checker.Vcassign.initial)));
    Test.make ~name:"deadlock-V-vc4"
      (Staged.stage (fun () ->
           ignore (Checker.Deadlock.analyze Checker.Vcassign.with_vc4)));
    Test.make ~name:"deadlock-V-debugged"
      (Staged.stage (fun () ->
           ignore (Checker.Deadlock.analyze Checker.Vcassign.debugged)));
    (* E13: footnote 2, the semi-naive fixpoint on the initial assignment *)
    Test.make ~name:"deadlock-V-initial-fixpoint"
      (Staged.stage (fun () ->
           ignore
             (Checker.Deadlock.analyze ~fixpoint:true Checker.Vcassign.initial)));
    (* E6: the invariant suite *)
    Test.make ~name:"invariants-all"
      (Staged.stage (fun () ->
           ignore (Checker.Invariant.run_all (Lazy.force db))));
    Test.make ~name:"invariant-sql-single"
      (Staged.stage (fun () ->
           ignore
             (Relalg.Sql_exec.is_empty (Lazy.force db)
                "SELECT dirst, dirpv FROM D WHERE dirst = 'MESI' AND NOT dirpv = 'one'")));
    (* E7: the mapping pipeline *)
    Test.make ~name:"mapping-partition"
      (Staged.stage (fun () -> ignore (Mapping.Partition.run ())));
    (* query engine: sequential scan vs hash-index access path *)
    Test.make ~name:"select-D-seqscan"
      (Staged.stage (fun () ->
           ignore
             (Relalg.Sql_exec.query (Lazy.force db)
                "SELECT * FROM D WHERE inmsg = 'readex'")));
    (* parse, plan and execute with an index on D.inmsg; the first run
       builds the cached index *)
    Test.make ~name:"select-D-indexed"
      (Staged.stage
         (let open Relalg in
          let run () =
            let db = Lazy.force db in
            Planner.execute db
              (Planner.plan ~indexes:[ "D", "inmsg" ] db
                 (Plan.of_query
                    (Sql_parser.parse_query
                       "SELECT * FROM D WHERE inmsg = 'readex'")))
          in
          ignore (run ());
          fun () -> ignore (run ())));
    (* E9: one bounded model-checking run *)
    Test.make ~name:"mcheck-2node-loadstore"
      (Staged.stage (fun () ->
           ignore
             (Mcheck.Explore.run ~max_states:5_000
                ~tables:(Lazy.force mcheck_tables)
                {
                  Mcheck.Semantics.nodes = 2; addrs = 1;
                  ops = [ "load"; "store" ]; capacity = 3; io_addrs = []; lossy = false;
                })));
    Test.make ~name:"mcheck-3node-symmetry"
      (Staged.stage (fun () ->
           ignore
             (Mcheck.Explore.run ~max_states:5_000 ~symmetry:true
                ~tables:(Lazy.force mcheck_tables)
                {
                  Mcheck.Semantics.nodes = 3; addrs = 1;
                  ops = [ "load"; "store" ]; capacity = 3; io_addrs = []; lossy = false;
                })));
    (* E10: the simulator replay *)
    Test.make ~name:"sim-figure4-replay"
      (Staged.stage (fun () ->
           ignore (Sim.Scenario.figure4 Checker.Vcassign.with_vc4)));
  ]

(* --- exploration-core A/B pairs --------------------------------------
   The same bounded search through the boxed oracle and through
   production.  The packed/boxed pair prices two changes together: the
   state representation (bit-packed vectors + open addressing vs
   Marshal strings + Hashtbl) and the rule dispatch (coded integer
   guards and output slots vs the naive first-match scan over string
   bindings).  Both run on one domain, where the stealing engine is a
   single FIFO queue in the boxed engine's BFS order.  It is the only
   pair left that prices packed against boxed; the seq/par pairs below
   time production at both degrees.  The pairs surface in the JSON
   snapshot "pairs". *)
let mcheck_engine_cfg =
  {
    Mcheck.Semantics.nodes = 2; addrs = 1; ops = [ "load"; "store" ];
    capacity = 3; io_addrs = []; lossy = false;
  }

let boxed_search () =
  Mcheck.Explore.run_reference ~max_states:5_000
    ~tables:(Lazy.force mcheck_tables) mcheck_engine_cfg

let packed_search () =
  Mcheck.Explore.run ~max_states:5_000 ~tables:(Lazy.force mcheck_tables)
    mcheck_engine_cfg

let mcheck_engine_test ~name search =
  Test.make ~name (Staged.stage (fun () -> ignore (search ())))

let engine_baseline_benchmarks =
  [
    mcheck_engine_test ~name:"mcheck-2node-boxed" boxed_search;
    mcheck_engine_test ~name:"mcheck-2node-packed" packed_search;
  ]

let engine_degree_benchmarks =
  [
    mcheck_engine_test ~name:"mcheck-2node-steal" packed_search;
    (* the flight-recorder overhead control: the same steal-engine search
       with event recording compiled in but switched off, so the
       recorder-on-vs-off pair prices the always-on default.  The CI gate
       holds the on/off ratio at <= 1.05x. *)
    mcheck_engine_test ~name:"mcheck-2node-steal-recoff" (fun () ->
        Obs.Flightrec.with_disabled packed_search);
  ]

(* (pair name, reference measurement, candidate measurement, domains the
   pair ran at); speedup = reference / candidate. *)
let engine_pair_specs ~domains =
  [
    "mcheck-pack-vs-boxed", "mcheck-2node-boxed", "mcheck-2node-packed", 1;
    (* reference = recording off, candidate = recording on: speedup is
       off/on, so the <= 1.05x overhead budget reads as speedup >= 0.952 *)
    ( "mcheck-recorder-on-vs-off", "mcheck-2node-steal-recoff",
      "mcheck-2node-steal", domains );
  ]

(* The benchmarks whose hot path is parallelized; each runs twice in
   machine-readable mode, pinned to one domain and at the requested
   degree, so the JSON snapshot records the seq/par pair.  Deadlock
   analysis opens no parallel region, so a pair would time one path
   twice: deadlock-V-vc4 is measured once, like the other analyses. *)
let paired_names = [ "generate-D-incremental"; "mcheck-3node-symmetry" ]

(* --only SUBSTR: restrict every suite to benchmarks whose name contains
   SUBSTR, so one pair (say the recorder overhead gate) can be
   re-measured in seconds instead of re-running the whole suite.  The
   JSON snapshot then carries only the selected measurements. *)
let only =
  let argv = Sys.argv in
  let o = ref None in
  Array.iteri
    (fun i arg ->
      if arg = "--only" && i + 1 < Array.length argv then o := Some argv.(i + 1))
    argv;
  !o

let contains ~sub s =
  let n = String.length sub and m = String.length s in
  let rec go i = i + n <= m && (String.sub s i n = sub || go (i + 1)) in
  go 0

let keep test =
  match only with
  | None -> true
  | Some sub -> contains ~sub (Test.name test)

let ols_estimate ~name benchmark analyzed =
  (* Refuse to report a regression slope fitted to fewer than two
     samples — that is not an estimate, it is noise — rather than let a
     NaN leak into the JSON snapshot and poison downstream comparisons. *)
  let samples = Array.length benchmark.Benchmark.lr in
  if samples < 2 then
    failwith
      (Printf.sprintf
         "bench %s: only %d raw sample(s); OLS needs at least 2 — raise \
          the quota or run limit"
         name samples);
  match Analyze.OLS.estimates analyzed with
  | Some (ns :: _) when not (Float.is_nan ns) -> ns
  | Some _ | None ->
      failwith
        (Printf.sprintf
           "bench %s: OLS fit over %d samples produced no estimate" name
           samples)

let run_one ~domains test =
  let ols =
    Analyze.ols ~r_square:false ~bootstrap:0 ~predictors:[| Measure.run |]
  in
  let instance = Instance.monotonic_clock in
  let cfg =
    Benchmark.cfg ~limit:50 ~quota:(Time.second 1.0) ~kde:None
      ~stabilize:false ()
  in
  let results =
    Par.Pool.with_domains domains (fun () ->
        Benchmark.all cfg [ instance ] test)
  in
  let analyzed = Analyze.all ols instance results in
  let measurements = ref [] in
  Hashtbl.iter
    (fun name a ->
      let ns = ols_estimate ~name (Hashtbl.find results name) a in
      measurements := (name, ns) :: !measurements;
      Printf.printf "%-34s %12.3f ms/run\n%!" name (ns /. 1e6))
    analyzed;
  !measurements

let run_benchmarks ~domains () =
  Printf.printf "\n=== Bechamel timings (per regeneration) ===\n%!";
  List.concat_map
    (fun test -> run_one ~domains test)
    (List.filter keep (benchmarks @ engine_baseline_benchmarks))

(* Seq/par A-B runs: re-measure each parallelized benchmark at the
   requested degree under a "-par" name; the baseline suite above
   already measured the same workload pinned to one domain. *)
let run_pairs ~domains () =
  if domains <= 1 then []
  else begin
    Printf.printf "\n=== parallel variants (--domains %d) ===\n%!" domains;
    List.concat_map
      (fun test ->
        List.map
          (fun (name, ns) -> name ^ "-par", ns)
          (run_one ~domains test))
      (List.filter
         (fun test -> keep test && List.mem (Test.name test) paired_names)
         benchmarks)
  end

(* The recorder on/off pair prices the flight recorder on the parallel
   steal engine, so it runs at the requested degree; at one domain the
   search would not steal at all.  A 5 % budget is below what one
   estimate per side resolves on a shared host (a back-to-back pair once
   read 1.78x, the next four 0.93-1.04x), so the two sides alternate
   over [recorder_rounds] rounds, each side's entry is its median time,
   and the pair's speedup is the median of the per-round off/on ratios.
   Returns the measurements and the (pair name, speedup) overrides. *)
let recorder_rounds = 5

let median xs =
  let a = Array.of_list xs in
  Array.sort compare a;
  a.(Array.length a / 2)

let run_engine_pairs ~domains () =
  if domains <= 1 then [], []
  else begin
    Printf.printf "\n=== exploration engines (--domains %d) ===\n%!" domains;
    match List.filter keep engine_degree_benchmarks with
    | [ on; off ] ->
        let time test =
          match run_one ~domains test with
          | [ (_, ns) ] -> ns
          | _ -> failwith ("bench " ^ Test.name test ^ ": expected one estimate")
        in
        let rounds =
          List.init recorder_rounds (fun r ->
              (* alternate which side goes first, so drift hits both *)
              if r mod 2 = 0 then
                let off_ns = time off in
                off_ns, time on
              else
                let on_ns = time on in
                time off, on_ns)
        in
        ( [
            Test.name on, median (List.map snd rounds);
            Test.name off, median (List.map fst rounds);
          ],
          [
            ( "mcheck-recorder-on-vs-off",
              median (List.map (fun (off_ns, on_ns) -> off_ns /. on_ns) rounds) );
          ] )
    | kept -> List.concat_map (run_one ~domains) kept, []
  end

let git_rev () =
  try
    let ic = Unix.open_process_in "git rev-parse --short HEAD 2>/dev/null" in
    let rev = try String.trim (input_line ic) with End_of_file -> "" in
    match Unix.close_process_in ic with
    | Unix.WEXITED 0 when rev <> "" -> rev
    | _ -> "unknown"
  with Unix.Unix_error _ | Sys_error _ -> "unknown"

(* Machine-readable perf snapshot (BENCH_<date>.json, schema
   asura-bench/3) so successive PRs can track the performance
   trajectory without re-parsing the text output.  v2 added the domain
   count, the git revision, and seq/par pairs with their speedups;
   baseline entries are measured pinned to one domain, "-par" entries
   at the requested degree.  v3 adds "regressions"; older v3 files
   also carry a "representation" member, which readers ignore. *)
let write_json ~domains ~speedups measurements =
  let tm = Unix.gmtime (Unix.gettimeofday ()) in
  let date =
    Printf.sprintf "%04d-%02d-%02d" (tm.Unix.tm_year + 1900)
      (tm.Unix.tm_mon + 1) tm.Unix.tm_mday
  in
  let pairs =
    List.filter_map
      (fun name ->
        match
          List.assoc_opt name measurements,
          List.assoc_opt (name ^ "-par") measurements
        with
        | Some seq_ns, Some par_ns ->
            Some
              (Obs.Json.Obj
                 [
                   "name", Obs.Json.Str name;
                   "seq_ns", Obs.Json.Float seq_ns;
                   "par_ns", Obs.Json.Float par_ns;
                   "domains", Obs.Json.Int domains;
                   "speedup", Obs.Json.Float (seq_ns /. par_ns);
                 ])
        | _ -> None)
      paired_names
  in
  (* engine A/B pairs ride the same array: "seq_ns" holds the reference
     side (boxed / recorder off), "par_ns" the candidate (packed /
     recorder on); a pair measured in rounds takes its speedup from
     [speedups] *)
  let pairs =
    pairs
    @ List.filter_map
        (fun (pname, ref_name, cand_name, d) ->
          match
            ( List.assoc_opt ref_name measurements,
              List.assoc_opt cand_name measurements )
          with
          | Some ref_ns, Some cand_ns ->
              Some
                (Obs.Json.Obj
                   [
                     "name", Obs.Json.Str pname;
                     "seq_ns", Obs.Json.Float ref_ns;
                     "par_ns", Obs.Json.Float cand_ns;
                     "domains", Obs.Json.Int d;
                     ( "speedup",
                       Obs.Json.Float
                         (Option.value (List.assoc_opt pname speedups)
                            ~default:(ref_ns /. cand_ns)) );
                   ])
          | _ -> None)
        (engine_pair_specs ~domains)
  in
  (* Seq/par pairs where the parallel run is a slowdown (speedup < 1.0):
     surfaced both as a dedicated JSON array and as one-line warnings, so
     a CI log shows the regression without parsing the snapshot. *)
  let regressions =
    List.filter_map
      (fun name ->
        match
          List.assoc_opt name measurements,
          List.assoc_opt (name ^ "-par") measurements
        with
        | Some seq_ns, Some par_ns when seq_ns /. par_ns < 1.0 ->
            let speedup = seq_ns /. par_ns in
            (* stderr: with --json this must never interleave with the
               snapshot on stdout *)
            Printf.eprintf
              "WARNING: %s: parallel run is %.2fx the sequential time \
               (speedup %.2f < 1.0 at %d domains)\n"
              name (par_ns /. seq_ns) speedup domains;
            Some
              (Obs.Json.Obj
                 [
                   "name", Obs.Json.Str name;
                   "seq_ns", Obs.Json.Float seq_ns;
                   "par_ns", Obs.Json.Float par_ns;
                   "domains", Obs.Json.Int domains;
                   "speedup", Obs.Json.Float speedup;
                 ])
        | _ -> None)
      paired_names
  in
  let json =
    Obs.Json.Obj
      [
        "schema", Obs.Json.Str "asura-bench/3";
        "date", Obs.Json.Str date;
        "ocaml", Obs.Json.Str Sys.ocaml_version;
        "word_size", Obs.Json.Int Sys.word_size;
        "domains", Obs.Json.Int domains;
        "git_rev", Obs.Json.Str (git_rev ());
        ( "benchmarks",
          Obs.Json.List
            (List.map
               (fun (name, ns) ->
                 Obs.Json.Obj
                   [
                     "name", Obs.Json.Str name;
                     "ns_per_run", Obs.Json.Float ns;
                   ])
               measurements) );
        "pairs", Obs.Json.List pairs;
        "regressions", Obs.Json.List regressions;
      ]
  in
  let file = Printf.sprintf "BENCH_%s.json" date in
  let oc = open_out file in
  output_string oc (Obs.Json.to_string json);
  output_char oc '\n';
  close_out oc;
  Printf.printf "\nwrote %d measurements to %s\n" (List.length measurements)
    file;
  if Obs.Runlog.configured () then
    Obs.Runlog.note "bench"
      (Obs.Json.Obj
         [
           "snapshot", Obs.Json.Str file;
           "measurements", Obs.Json.Int (List.length measurements);
           "pairs", Obs.Json.Int (List.length pairs);
           "regressions", Obs.Json.Int (List.length regressions);
         ])

(* The degree comes from --domains, else ASURA_DOMAINS, else 1.  The
   source used must be an integer >= 1, as in the CLI, or the run stops
   with one line naming it instead of falling back to one domain. *)
let parse_domains () =
  let argv = Sys.argv in
  let parse source v =
    match int_of_string_opt v with
    | Some n when n >= 1 -> n
    | Some _ | None ->
        Printf.eprintf "bad %s value %S\n" source v;
        exit 2
  in
  let flag = ref None in
  Array.iteri
    (fun i arg ->
      if arg = "--domains" && i + 1 < Array.length argv then
        flag := Some argv.(i + 1))
    argv;
  match (!flag, Sys.getenv_opt "ASURA_DOMAINS") with
  | Some v, _ -> parse "--domains" v
  | None, Some v -> parse "ASURA_DOMAINS" v
  | None, None -> 1

(* --manifest [DIR]: persist an asura-run/1 manifest of this bench
   invocation (same flag the CLI takes; DIR defaults to "runs"). *)
let parse_manifest () =
  let argv = Sys.argv in
  let dir = ref None in
  Array.iteri
    (fun i arg ->
      if arg = "--manifest" then
        if
          i + 1 < Array.length argv
          && String.length argv.(i + 1) > 0
          && argv.(i + 1).[0] <> '-'
        then dir := Some argv.(i + 1)
        else dir := Some "runs")
    argv;
  !dir

let () =
  let json = Array.exists (( = ) "--json") Sys.argv in
  let domains = parse_domains () in
  (match parse_manifest () with
  | None -> ()
  | Some dir ->
      Obs.Config.enable ();
      Obs.Coverage.enable ();
      Obs.Runlog.configure ~dir ~cmd:"bench" ~argv:Sys.argv;
      Obs.Runlog.note "domains" (Obs.Json.Int domains);
      at_exit (fun () ->
          match Obs.Runlog.write () with
          | Some path -> Printf.eprintf "wrote run manifest to %s\n" path
          | None -> ()));
  Printf.printf "ASURA coherence-protocol design toolchain: benchmark suite\n";
  if json then begin
    (* machine-readable mode: micro-benchmarks only, plus the snapshot;
       the baseline suite is pinned to one domain so snapshots stay
       comparable across machines and settings *)
    let baseline = run_benchmarks ~domains:1 () in
    let engines, speedups = run_engine_pairs ~domains () in
    let measurements = baseline @ run_pairs ~domains () @ engines in
    write_json ~domains ~speedups measurements
  end
  else begin
    Printf.printf "(reproduces every table/figure of the IPPS 2003 paper)\n";
    Experiments.run_all ();
    ignore (run_benchmarks ~domains ());
    ignore (run_pairs ~domains ());
    ignore (run_engine_pairs ~domains ())
  end
