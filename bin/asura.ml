(* asura: the push-button command-line front end (paper section 1:
   "The approach is used in a push-button manner").

   Subcommands mirror the development flow: generate the controller
   tables, check invariants, check for deadlocks, map D to implementation
   tables, emit code, run the simulator scenarios, and run the
   explicit-state baseline. *)

open Cmdliner

(* ---------------------- observability & logging ----------------------- *)

(* Every subcommand takes the same setup term: -v/-q (Logs verbosity),
   --trace FILE (Chrome trace-event export), --stats (span/metric
   summary on stderr), --domains N (parallelism degree), --progress
   (live heartbeat), --manifest [DIR] (persistent run manifest) and
   --log-file PATH (redirect logs + heartbeats).  Tracing and manifest
   output are finalized in at_exit hooks so commands that exit 1 on a
   failed verdict still write them. *)

(* Print canned sys. queries, each under its title with the SQL it ran:
   the one printer behind top, events top, plan top and --stats. *)
let print_canned oc db cs =
  output_string oc (Systables.render_canned db cs);
  flush oc

let obs_setup level trace_file stats domains log_file progress manifest =
  Fmt_tty.setup_std_outputs ();
  (match log_file with
  | None -> Logs.set_reporter (Logs_fmt.reporter ())
  | Some path ->
      (* Logs and Runlog heartbeats both go to the file; stdout stays
         untouched for machine-parseable command output. *)
      let oc = open_out path in
      at_exit (fun () -> try close_out oc with Sys_error _ -> ());
      Obs.Runlog.set_sink oc;
      let fmt = Format.formatter_of_out_channel oc in
      Logs.set_reporter (Logs.format_reporter ~app:fmt ~dst:fmt ()));
  Logs.set_level level;
  (* like ASURA_DOMAINS: a malformed switch is one line and exit 2,
     never silently read as "on" or as unset *)
  let refuse expected =
    Option.iter (fun v ->
        Printf.eprintf "asura: %s (got %S)\n" expected v;
        Stdlib.exit 2)
  in
  refuse "ASURA_FLIGHTREC must be on or off (or 1/0, true/false, yes/no)"
    (Obs.Flightrec.env_invalid ());
  refuse "ASURA_PLAN_BUILD must be left or right (or LEFT/RIGHT, l/r)"
    (Relalg.Planner.env_invalid ());
  Option.iter Par.Pool.set_domains domains;
  (* at_exit hooks run last-registered first: the --stats views print
     after the manifest and the trace are written, so the queries behind
     them never land in either *)
  if stats then begin
    Obs.Config.enable ();
    at_exit (fun () ->
        let db = Systables.stats_db () in
        print_canned stderr db (Systables.canned_in [ Stats ]))
  end;
  if progress then begin
    Obs.Coverage.enable ();
    Obs.Runlog.enable_progress ()
  end;
  (match manifest with
  | None -> ()
  | Some dir ->
      (* Manifests embed the coverage summary and a metrics snapshot, so
         arm both collectors.  They also embed the flight-recorder drain,
         and an interrupted run is exactly when that evidence matters —
         turn SIGINT/SIGTERM into orderly exits so the at_exit write
         below still happens. *)
      Obs.Coverage.enable ();
      Obs.Config.enable ();
      Obs.Flightrec.arm_signal_drain ();
      let cmd = if Array.length Sys.argv > 1 then Sys.argv.(1) else "run" in
      Obs.Runlog.configure ~dir ~cmd ~argv:Sys.argv;
      Obs.Runlog.note "domains" (Obs.Json.Int (Par.Pool.domains ()));
      at_exit (fun () ->
          match Obs.Runlog.write () with
          | Some path ->
              Printf.fprintf (Obs.Runlog.sink ()) "wrote run manifest to %s\n%!"
                path
          | None -> ()));
  Option.iter
    (fun file ->
      Obs.Config.enable ();
      at_exit (fun () ->
          try
            Obs.Trace.save file;
            Logs.app (fun m ->
                m "wrote Chrome trace (%d events) to %s; load it in \
                   chrome://tracing or https://ui.perfetto.dev"
                  (List.length (Obs.Trace.events ()))
                  file)
          with Sys_error msg ->
            Logs.err (fun m -> m "could not write trace: %s" msg)))
    trace_file

let setup_term =
  let trace_file =
    Arg.(
      value
      & opt (some string) None
      & info [ "trace" ] ~docv:"FILE"
          ~doc:
            "Record monotonic-clock spans of every pipeline stage and \
             write them as a Chrome trace-event JSON file (viewable in \
             chrome://tracing or Perfetto).")
  in
  let stats =
    Arg.(
      value & flag
      & info [ "stats" ]
          ~doc:
            "Print two canned views to standard error on exit: every \
             span of $(b,sys.span_stats) by total time, and every row of \
             $(b,sys.metrics) (solver pruning, join cardinalities, \
             model-checker frontier, simulator queues; histogram \
             buckets in its $(b,buckets) column) by registry and key.")
  in
  let domains =
    Arg.(
      value
      & opt (some string) None
      & info [ "domains" ] ~docv:"N" ~env:(Cmd.Env.info "ASURA_DOMAINS")
          ~doc:
            "Number of OCaml domains to spread table generation and the \
             model checker's work-stealing search across (default 1).  \
             Tables, \
             dependencies and verdicts are identical at every setting, \
             and so are the counts of a complete model-checking search.  \
             A value that is not an integer of at least 1 exits 2.")
  in
  (* The degree is external input like the counts: anything but an
     integer >= 1 is refused with one line naming where it came from
     (no command-line argument used means the environment) and exit 2,
     instead of being clamped to 1 or answered with a usage screen. *)
  let domains =
    Term.(
      const (fun (v, used) ->
          Option.map
            (fun s ->
              match int_of_string_opt s with
              | Some n when n >= 1 -> n
              | _ ->
                  Printf.eprintf "asura: %s must be an integer >= 1 (got %S)\n"
                    (if used = [] then "ASURA_DOMAINS" else "--domains")
                    s;
                  Stdlib.exit 2)
            v)
      $ with_used_args domains)
  in
  let log_file =
    Arg.(
      value
      & opt (some string) None
      & info [ "log-file" ] ~docv:"PATH"
          ~doc:
            "Redirect log output and $(b,--progress) heartbeats to this \
             file instead of standard error, keeping standard output \
             machine-parseable.")
  in
  let progress =
    Arg.(
      value & flag
      & info [ "progress" ]
          ~doc:
            "Print a live heartbeat (states explored, frontier size, \
             states/sec, transition coverage, ETA) to standard error \
             while long-running commands work.  Also enables transition \
             coverage collection.")
  in
  let manifest =
    Arg.(
      value
      & opt ~vopt:(Some "runs") (some string) None
      & info [ "manifest" ] ~docv:"DIR"
          ~doc:
            "Write a persistent run manifest (schema asura-run/1: argv, \
             git revision, wall time, transition coverage, metrics \
             snapshot) into $(docv) on exit (default $(b,runs)).  \
             Aggregate manifests later with $(b,asura report).")
  in
  Term.(
    const obs_setup $ Logs_cli.level () $ trace_file $ stats $ domains
    $ log_file $ progress $ manifest)

let list_tables () =
  List.iter
    (fun c ->
      let t = Protocol.Ctrl_spec.table c.Protocol.spec in
      Printf.printf "%-6s %6d rows  %3d columns\n" (Relalg.Table.name t)
        (Relalg.Table.cardinality t) (Relalg.Table.arity t))
    Protocol.controllers

let show_table name constraints_only =
  match Protocol.find name with
  | None ->
      Printf.eprintf
        "generate: unknown controller %s (try: D M C N RAC IO PIF LK)\n" name;
      exit 2
  | Some c ->
      if constraints_only then
        print_string (Protocol.Ctrl_spec.constraints_listing c.Protocol.spec)
      else
        print_string
          (Relalg.Table.to_string (Protocol.Ctrl_spec.table c.Protocol.spec))

(* ---------------------------- generate ------------------------------- *)

let generate_cmd =
  let table =
    Arg.(
      value
      & opt (some string) None
      & info [ "t"; "table" ] ~docv:"NAME"
          ~doc:"Print one generated controller table in full.")
  in
  let constraints =
    Arg.(
      value & flag
      & info [ "c"; "constraints" ]
          ~doc:"Print the column constraints instead of the rows.")
  in
  let run () table constraints =
    match table with
    | None -> list_tables ()
    | Some name -> show_table name constraints
  in
  Cmd.v
    (Cmd.info "generate"
       ~doc:
         "Generate the eight controller tables from their column \
          constraints (paper section 3).")
    Term.(const run $ setup_term $ table $ constraints)

(* ---------------------------- invariants ----------------------------- *)

let invariants_cmd =
  let verbose =
    Arg.(
      value & flag
      & info [ "a"; "all" ] ~doc:"Print every invariant, not only failures.")
  in
  let run () verbose =
    let db = Protocol.database () in
    let results = Checker.Invariant.run_all db in
    let failures = Checker.Invariant.failures results in
    if verbose then print_string (Checker.Invariant.summary results)
    else begin
      List.iter
        (fun (r : Checker.Invariant.result) ->
          Printf.printf "FAIL %s: %s\n%s" r.invariant.id
            r.invariant.description
            (Relalg.Table.to_string r.violations))
        failures;
      Printf.printf "%d invariants checked, %d failed\n" (List.length results)
        (List.length failures)
    end;
    if failures <> [] then exit 1
  in
  Cmd.v
    (Cmd.info "invariants"
       ~doc:"Check all protocol invariants with SQL (paper section 4.3).")
    Term.(const run $ setup_term $ verbose)

(* ----------------------------- deadlock ------------------------------ *)

let assignment_conv =
  let parse = function
    | "initial" -> Ok Checker.Vcassign.initial
    | "vc4" -> Ok Checker.Vcassign.with_vc4
    | "debugged" -> Ok Checker.Vcassign.debugged
    | s -> Error (`Msg ("unknown assignment " ^ s ^ " (initial|vc4|debugged)"))
  in
  Arg.conv (parse, fun fmt v -> Format.pp_print_string fmt v.Checker.Vcassign.name)

(* Like [assignment_conv] but also accepts a CSV file (columns m,s,d,v),
   so externally-edited channel assignments can be analyzed directly.
   A file that cannot be read, or does not hold an assignment, is bad
   input rather than a usage error: {!vc_arg} reports it on one line and
   exits 2. *)
let assignment_or_csv_conv =
  let load path =
    try
      if Sys.is_directory path then
        Error (path ^ ": is a directory, not a CSV file")
      else
        Ok
          (Checker.Vcassign.of_csv
             ~name:(Filename.remove_extension (Filename.basename path))
             (In_channel.with_open_bin path In_channel.input_all))
    with
    | Relalg.Csv.Csv_error { line; message } ->
        Error (Printf.sprintf "%s: line %d: %s" path line message)
    | Checker.Vcassign.Invalid e ->
        Error (path ^ ": " ^ Checker.Vcassign.error_to_string e)
    | Sys_error message -> Error message (* names the file itself *)
  in
  let parse = function
    | "initial" -> Ok (Ok Checker.Vcassign.initial)
    | "vc4" -> Ok (Ok Checker.Vcassign.with_vc4)
    | "debugged" -> Ok (Ok Checker.Vcassign.debugged)
    | path when Sys.file_exists path -> Ok (load path)
    | s ->
        Error
          (`Msg
             ("unknown assignment " ^ s
            ^ " (initial|vc4|debugged, or a CSV file with columns m,s,d,v)"))
  in
  Arg.conv
    ( parse,
      fun fmt -> function
        | Ok v -> Format.pp_print_string fmt v.Checker.Vcassign.name
        | Error m -> Format.pp_print_string fmt m )

(* The [--vc] option (default: the paper's Figure-4 assignment). *)
let vc_arg ~doc =
  let resolve = function
    | Ok v -> v
    | Error message ->
        prerr_endline ("vc: " ^ message);
        exit 2
  in
  Term.(
    const resolve
    $ Arg.(
        value
        & opt assignment_or_csv_conv (Ok Checker.Vcassign.with_vc4)
        & info [ "vc" ] ~docv:"ASSIGNMENT" ~doc))

let deadlock_cmd =
  let assignment =
    Arg.(
      value
      & opt assignment_conv Checker.Vcassign.debugged
      & info [ "a"; "assignment" ] ~docv:"ASSIGNMENT"
          ~doc:
            "Virtual-channel assignment: $(b,initial) (VC0-VC3), $(b,vc4) \
             (the paper's Figure 4 setup) or $(b,debugged) (the fix).")
  in
  let dot =
    Arg.(
      value & flag
      & info [ "dot" ] ~doc:"Emit the VCG in Graphviz format instead.")
  in
  let narrative =
    Arg.(
      value & flag
      & info [ "narrative" ]
          ~doc:"Run all three assignments in the paper's order.")
  in
  let run () assignment dot narrative =
    if narrative then
      List.iter
        (fun (desc, r) ->
          Printf.printf "=== %s ===\n%s\n" desc (Checker.Deadlock.summary r))
        (Checker.Deadlock.narrative ())
    else
      let r = Checker.Deadlock.analyze assignment in
      if dot then print_string (Checker.Vcg.to_dot r.Checker.Deadlock.vcg)
      else print_string (Checker.Deadlock.summary r);
      if not (Checker.Deadlock.is_deadlock_free r) then exit 1
  in
  Cmd.v
    (Cmd.info "deadlock"
       ~doc:
         "Build the virtual-channel dependency graph and report cycles \
          (paper sections 4.1-4.2).")
    Term.(const run $ setup_term $ assignment $ dot $ narrative)

(* -------------------------------- why -------------------------------- *)

(* Populate the live rings with the paper's Figure-4 drama: replay the
   scenario through the queue-accurate simulator, whose deliveries go
   through the same instrumented Semantics.eval the model checker uses —
   every wb/readex rule firing lands in the recorder with its controller
   table and row.  The simulator has no stop bookkeeping of its own, so
   the CLI stamps the terminal deadlock/stop event, mirroring what
   Mcheck.Explore.finish records. *)
let exercise_events_figure4 assignment =
  let result, _trace = Sim.Scenario.figure4 assignment in
  (match result with
  | Sim.Runner.Deadlock _ ->
      Obs.Flightrec.record ~tag:Obs.Flightrec.tag_deadlock ~a:0 ~b:0 ~c:0;
      Obs.Flightrec.record ~tag:Obs.Flightrec.tag_stop
        ~a:Obs.Flightrec.stop_violation ~b:0 ~c:0
  | _ ->
      Obs.Flightrec.record ~tag:Obs.Flightrec.tag_stop
        ~a:Obs.Flightrec.stop_complete ~b:0 ~c:0);
  result

(* Render the last [n] events as a relation: attach sys.events and let
   the SQL front end do the windowing, so `asura events tail` is the
   same query a user could type. *)
let print_events_tail n docs =
  let total = List.length docs in
  let db =
    Relalg.Database.replace_system Relalg.Database.empty
      (Systables.events_of docs)
  in
  let sql =
    Printf.sprintf
      "SELECT seq, t_us, dom, tag, a, b, c, table_name, detail FROM \
       sys.events WHERE seq >= %d ORDER BY seq"
      (max 0 (total - n))
  in
  Printf.printf "-- %s\n" sql;
  print_string (Relalg.Table.to_string (Relalg.Sql_exec.query db sql));
  if total > n then
    Printf.printf "(%d earlier events not shown; %d recorded in total)\n"
      (total - n) total

let live_event_docs () = Obs.Flightrec.of_json (Obs.Flightrec.to_json ())

let why_cmd =
  let what =
    Arg.(
      required
      & pos 0 (some (enum [ "deadlock", `Deadlock; "invariant", `Invariant ]))
          None
      & info [] ~docv:"WHAT"
          ~doc:"$(b,deadlock), or $(b,invariant) followed by an invariant id.")
  in
  let inv_id =
    Arg.(
      value
      & pos 1 (some string) None
      & info [] ~docv:"NAME"
          ~doc:"Invariant id (with $(b,why invariant); see $(b,invariants -a)).")
  in
  let assignment =
    vc_arg
      ~doc:
        "Virtual-channel assignment to explain: $(b,initial), $(b,vc4), \
         $(b,debugged), or a CSV file with columns m,s,d,v (as written by \
         $(b,export))."
  in
  let dot =
    Arg.(
      value & flag
      & info [ "dot" ]
          ~doc:
            "Emit the witness subgraph (cycle channels, edges labeled with \
             a witnessing dependency and its controller-row origin) in \
             Graphviz format instead of the narrative.")
  in
  let events =
    Arg.(
      value & flag
      & info [ "events" ]
          ~doc:
            "After the narrative, replay the Figure-4 scenario under the \
             same assignment through the simulator and print the \
             flight-recorder tail — the last rule firings, decoded to \
             their controller rows, before the channels wedge.")
  in
  let run () what inv_id assignment dot events =
    match what with
    | `Deadlock ->
        let r = Checker.Deadlock.analyze assignment in
        if dot then print_string (Checker.Why.deadlock_dot r)
        else print_string (Checker.Why.deadlock r);
        if events then begin
          ignore (exercise_events_figure4 assignment);
          print_string "\n## Flight recorder (last events before the wedge)\n";
          print_events_tail 40 (live_event_docs ())
        end;
        if not (Checker.Deadlock.is_deadlock_free r) then exit 1
    | `Invariant -> (
        match inv_id with
        | None ->
            prerr_endline
              "why invariant: missing invariant id (see asura invariants -a)";
            exit 2
        | Some id -> (
            match Checker.Invariant.find id with
            | None ->
                Printf.eprintf "unknown invariant %s\n" id;
                exit 2
            | Some inv ->
                let passed, text =
                  Checker.Why.invariant (Protocol.database ()) inv
                in
                print_string text;
                if not passed then exit 1))
  in
  Cmd.v
    (Cmd.info "why"
       ~doc:
         "Explain a verdict from the controller rows behind it: render \
          each VCG cycle as the controller transitions behind it (the \
          paper's Figure 4 narrative, reconstructed automatically), or \
          show each invariant counterexample with its witnesses, the \
          table rows it was selected from.")
    Term.(const run $ setup_term $ what $ inv_id $ assignment $ dot $ events)

(* ------------------------------- map --------------------------------- *)

let map_cmd =
  let emit =
    Arg.(
      value
      & opt (some string) None
      & info [ "emit" ] ~docv:"TABLE"
          ~doc:"Emit generated Verilog for one implementation table.")
  in
  let run () emit =
    let db = Mapping.Partition.run () in
    match emit with
    | Some name -> (
        match
          List.find_opt
            (fun (g : Mapping.Partition.group) -> g.table_name = name)
            Mapping.Partition.groups
        with
        | None ->
            Printf.eprintf "unknown implementation table %s\n" name;
            exit 1
        | Some g ->
            let t = Relalg.Database.find db g.table_name in
            print_string
              (Mapping.Codegen.to_verilog ~name:g.table_name
                 (Mapping.Codegen.rules_of_table
                    ~inputs:Mapping.Extend.input_columns ~outputs:g.payload t)))
    | None ->
        let ed = Mapping.Extend.ed () in
        Printf.printf "ED: %d rows x %d columns\n" (Relalg.Table.cardinality ed)
          (Relalg.Table.arity ed);
        List.iter
          (fun t ->
            Printf.printf "  %-18s %6d rows\n" (Relalg.Table.name t)
              (Relalg.Table.cardinality t))
          (Mapping.Partition.implementation_tables db);
        let o = Mapping.Reconstruct.check ~db () in
        Printf.printf "reconstruction: ED preserved = %b, D contained = %b\n"
          o.Mapping.Reconstruct.ed_preserved o.Mapping.Reconstruct.d_preserved;
        if not (o.ed_preserved && o.d_preserved) then exit 1
  in
  Cmd.v
    (Cmd.info "map"
       ~doc:
         "Map the debugged directory table to the nine implementation \
          tables and verify the reconstruction (paper section 5).")
    Term.(const run $ setup_term $ emit)

(* ------------------------------ simulate ----------------------------- *)

let simulate_cmd =
  let scenario =
    Arg.(
      value
      & pos 0 (enum [ "figure4", `Figure4; "readex", `Readex;
                      "contention", `Contention ]) `Figure4
      & info [] ~docv:"SCENARIO" ~doc:"figure4, readex or contention.")
  in
  let assignment =
    Arg.(
      value
      & opt assignment_conv Checker.Vcassign.with_vc4
      & info [ "a"; "assignment" ] ~docv:"ASSIGNMENT"
          ~doc:"Channel assignment (initial|vc4|debugged).")
  in
  let msc =
    Arg.(
      value & flag
      & info [ "msc" ]
          ~doc:"Render the trace as a message-sequence chart (the form of                 the paper's Figures 2 and 4).")
  in
  let run () scenario assignment msc_flag =
    let result, trace =
      match scenario with
      | `Figure4 -> Sim.Scenario.figure4 assignment
      | `Readex -> Sim.Scenario.readex_walkthrough assignment
      | `Contention -> Sim.Scenario.contention assignment
    in
    if msc_flag then print_string (Sim.Msc.render_run trace)
    else List.iter print_endline trace;
    Format.printf "%a@." Sim.Runner.pp_result result;
    match result with Sim.Runner.Deadlock _ -> exit 1 | _ -> ()
  in
  Cmd.v
    (Cmd.info "simulate"
       ~doc:
         "Replay a scenario in the queue-accurate simulator (the Figure 4 \
          deadlock by default).")
    Term.(const run $ setup_term $ scenario $ assignment $ msc)

(* Counts (--last, --max-uncovered, --max-states) are external input
   like any other: a negative one is refused with a one-line message and
   exit 2 instead of being read as an empty or inverted window.  Sizes
   (--nodes, --addrs) and mcheck's search bound must be positive: a
   system with no cache or no line, or a search of no state, reports
   "no violations", a silently wrong answer.  A fingerprint width
   outside what the visited set supports is refused the same way. *)
let bounded_conv ?(most = max_int) ~least ~must flag =
  let parse s =
    match int_of_string_opt s with
    | Some n when n >= least && n <= most -> Ok n
    | Some _ ->
        Printf.eprintf "asura: %s must %s (got %s)\n" flag must s;
        exit 2
    | None -> Error (`Msg (Printf.sprintf "invalid count %S" s))
  in
  Arg.conv (parse, Format.pp_print_int)

let count_conv = bounded_conv ~least:0 ~must:"not be negative"
let pos_count_conv = bounded_conv ~least:1 ~must:"be at least 1"

(* ------------------------------- mcheck ------------------------------ *)

let mcheck_cmd =
  let nodes =
    Arg.(
      value
      (* sharer, ack and snapshot masks are one OCaml int: one bit per
         node, 62 bits wide at most *)
      & opt (bounded_conv ~least:1 ~most:62 ~must:"be in 1..62" "--nodes") 2
      & info [ "n"; "nodes" ] ~doc:"Number of caches (1..62).")
  in
  let addrs =
    Arg.(
      value
      & opt (pos_count_conv "--addrs") 1
      & info [ "addrs" ] ~doc:"Number of cache lines (at least 1).")
  in
  let max_states =
    Arg.(
      value
      & opt (pos_count_conv "--max-states") 200_000
      & info [ "max-states" ] ~doc:"Search bound (at least 1).")
  in
  let evictions =
    Arg.(value & flag & info [ "evictions" ] ~doc:"Include eviction operations.")
  in
  let depth_profile =
    Arg.(
      value & flag
      & info [ "depth-profile" ]
          ~doc:"Print the per-depth expansion histogram of the BFS.")
  in
  let msc =
    Arg.(
      value & flag
      & info [ "msc" ]
          ~doc:
            "On a violation, render the counterexample trace as a \
             message-sequence chart (the form of the paper's Figures 2 \
             and 4) instead of raw trace lines.")
  in
  let compact_bits =
    Arg.(
      value
      & opt
          (some
             (bounded_conv ~least:8 ~most:62 ~must:"be in 8..62"
                "--compact-bits"))
          None
      & info [ "compact-bits" ] ~docv:"N"
          ~doc:
            "Stern-Dill hash compaction: keep only an $(docv)-bit \
             fingerprint (8..62) per visited state.  Memory drops to the \
             fingerprint table, but a fingerprint collision can silently \
             merge two states, so the run is reported as probabilistic \
             and violations carry no trace.")
  in
  let run () nodes addrs max_states evictions depth_profile msc_flag
      compact_bits =
    let ops =
      [ "load"; "store" ] @ if evictions then [ "evictmod"; "evictsh" ] else []
    in
    let r =
      Mcheck.Explore.run ~max_states ?compact_bits
        { Mcheck.Semantics.nodes; addrs; ops; capacity = 3; io_addrs = []; lossy = false }
    in
    Format.printf "%a@." Mcheck.Explore.pp_result r;
    if depth_profile then Format.printf "%a" Mcheck.Explore.pp_depth_profile r;
    match r.Mcheck.Explore.violation with
    | Some v ->
        if msc_flag then
          print_string
            (Sim.Msc.render_run ~title:"counterexample replay"
               v.Mcheck.Explore.trace)
        else List.iter print_endline v.Mcheck.Explore.trace;
        exit 1
    | None -> ()
  in
  Cmd.v
    (Cmd.info "mcheck"
       ~doc:
         "Exhaustively model-check the table-driven protocol (the \
          Murphi-style baseline the paper compares against).")
    Term.(
      const run $ setup_term $ nodes $ addrs $ max_states $ evictions
      $ depth_profile $ msc $ compact_bits)

(* ------------------------- system tables (sys.) ----------------------- *)

let read_file f =
  let ic = open_in_bin f in
  Fun.protect
    ~finally:(fun () -> close_in_noerr ic)
    (fun () -> really_input_string ic (in_channel_length ic))

let warn_skipped =
  List.iter (fun (label, reason) ->
      Printf.eprintf "warning: skipping %s: %s\n" label reason)

(* Parse JSON files as documents labeled by their base name; a file that
   cannot be read or parsed comes back as a (label, reason) skip. *)
let read_docs files =
  List.partition_map
    (fun f ->
      let label = Filename.basename f in
      match Obs.Json.parse (read_file f) with
      | Ok j -> Either.Left (label, j)
      | Error msg | (exception Sys_error msg) -> Either.Right (label, msg))
    files

(* Load every .json under a --runs directory as labeled documents for
   the sys. tables; bad files are skipped with a warning, like [asura
   report]. *)
let load_run_docs dir =
  match Sys.readdir dir with
  | entries ->
      Array.sort compare entries;
      let docs, skipped =
        read_docs
          (List.filter_map
             (fun f ->
               if Filename.check_suffix f ".json" then Some (Filename.concat dir f)
               else None)
             (Array.to_list entries))
      in
      warn_skipped skipped;
      docs
  | exception Sys_error msg ->
      Printf.eprintf "cannot read runs directory: %s\n" msg;
      exit 2

let runs_arg =
  let names = List.filter (( <> ) "sys.spans") Systables.table_names in
  Arg.(
    value
    & opt (some dir) None
    & info [ "runs" ] ~docv:"DIR"
        ~doc:
          (Printf.sprintf
             "Build the system tables (%s) from the run manifests and bench \
              snapshots under $(docv) only, instead of from this process; \
              $(b,sys.spans), the trace buffer, exists only without it."
             (String.concat ", " (List.map (Printf.sprintf "$(b,%s)") names))))

(* The one rule for where a command's sys. tables come from: DIR's
   documents with --runs, otherwise this process. *)
let attach_sys db runs =
  match runs with
  | None -> Systables.attach_live db
  | Some dir ->
      let db, skipped = Systables.attach_docs (load_run_docs dir) db in
      warn_skipped skipped;
      db

(* Run [f] with every SQL engine error rendered as one [sql:] line on
   stderr and exit 2, instead of an uncaught exception.  Shared by
   [sql] and [explain]. *)
let with_sql_errors f =
  let fail msg =
    prerr_endline ("sql: " ^ msg);
    exit 2
  in
  match f () with
  | v -> v
  | exception
      (Relalg.Sql_parser.Parse_error msg | Relalg.Sql_exec.Exec_error msg) ->
      fail msg
  | exception Relalg.Sql_lexer.Lex_error { pos; message } ->
      fail (Printf.sprintf "at offset %d: %s" pos message)
  | exception Relalg.Database.Unknown_table t -> fail ("unknown table " ^ t)
  | exception Relalg.Schema.Unknown_column c -> fail ("unknown column " ^ c)
  | exception Relalg.Schema.Incompatible_schemas msg -> fail msg
  | exception Relalg.Expr.Unknown_function f -> fail ("unknown function " ^ f)

(* Execute one statement.  Writes are executed but the resulting catalog
   is ephemeral — the CLI's value is that CREATE/INSERT/DROP statements
   are validated, including the reserved-sys. rejection. *)
let run_statement db q =
  match with_sql_errors (fun () -> Relalg.Sql_exec.exec db q) with
  | _, Some t -> print_string (Relalg.Table.to_string t)
  | _, None -> ()

(* -------------------------------- sql -------------------------------- *)

let sql_cmd =
  let query =
    Arg.(
      required
      & pos 0 (some string) None
      & info [] ~docv:"QUERY"
          ~doc:
            "A SQL query over the controller tables, or over the engine's \
             own telemetry via the $(b,sys.) system tables.")
  in
  let run () query runs =
    let db = Protocol.database () in
    (* A query that mentions sys. gets the telemetry attached; everything
       else runs against the protocol catalog untouched. *)
    let db =
      if runs = None && not (Systables.mentions_sys query) then db
      else attach_sys db runs
    in
    run_statement db query
  in
  Cmd.v
    (Cmd.info "sql"
       ~doc:
         "Run a SQL query against the controller-table database, e.g. \
          \"SELECT inmsg, locmsg FROM D WHERE bdirlookup = 'hit'\" — or \
          against the engine's own telemetry, e.g. \"SELECT table_name, \
          COUNT(*) FROM sys.coverage WHERE NOT covered GROUP BY \
          table_name\" with --runs.")
    Term.(const run $ setup_term $ query $ runs_arg)

(* -------------------------------- top --------------------------------- *)

(* The small 2-node load/store search that top and events top run to
   give the live tables something to say. *)
let exercise_cfg =
  {
    Mcheck.Semantics.nodes = 2;
    addrs = 1;
    ops = [ "load"; "store" ];
    capacity = 3;
    io_addrs = [];
    lossy = false;
  }

let top_cmd =
  let only =
    Arg.(
      value
      & opt (some string) None
      & info [ "query" ] ~docv:"KEY"
          ~doc:"Run a single canned query instead of the whole set.")
  in
  let max_states =
    Arg.(
      value
      & opt (count_conv "--max-states") 5_000
      & info [ "max-states" ] ~docv:"N"
          ~doc:
            "State budget of the small model-checking run used to \
             exercise the engine.")
  in
  let run () runs only max_states =
    let db = Protocol.database () in
    (* Answering live, exercise the pipeline with telemetry armed so the
       sys. tables have something to say: the invariant suite and
       deadlock analysis populate spans/metrics, the small mcheck run
       fires transition coverage. *)
    if runs = None then begin
      Obs.Config.enable ();
      Obs.Coverage.enable ();
      ignore (Checker.Invariant.run_all db);
      ignore (Checker.Deadlock.analyze Checker.Vcassign.debugged);
      ignore (Mcheck.Explore.run ~max_states exercise_cfg)
    end;
    let db = attach_sys db runs in
    let all = Systables.canned_in [ Top; Plan; Events ] in
    match List.filter (fun c -> only = None || only = Some c.Systables.key) all with
    | [] ->
        Printf.eprintf "top: unknown query %s (one of: %s)\n" (Option.get only)
          (String.concat ", " (List.map (fun c -> c.Systables.key) all));
        exit 2
    | cs -> print_canned stdout db cs
  in
  Cmd.v
    (Cmd.info "top"
       ~doc:
         "Answer the canned operational questions — slowest operators, \
          hottest and least-covered controller tables, bench speedup \
          regressions — each implemented as plain SQL over the sys. \
          system tables: of the manifests under $(b,--runs), or else of \
          this process after exercising the engine with telemetry on.")
    Term.(const run $ setup_term $ runs_arg $ only $ max_states)

(* ------------------------------- events ------------------------------- *)

(* The recordings embedded in the manifests under [dir], concatenated,
   with the total lost to ring wrap-around. *)
let manifest_event_docs dir =
  let docs = load_run_docs dir in
  ( List.concat_map (fun (_, doc) -> Obs.Flightrec.of_json doc) docs,
    List.fold_left (fun n (_, doc) -> n + Obs.Flightrec.doc_dropped doc) 0 docs )

let events_tail_cmd =
  let n =
    Arg.(
      value
      & opt (count_conv "--last") 40
      & info [ "n"; "last" ] ~docv:"K"
          ~doc:"How many trailing events to show.")
  in
  let assignment =
    vc_arg
      ~doc:
        "Virtual-channel assignment for the live Figure-4 replay: \
         $(b,initial), $(b,vc4) (default: the paper's deadlock), \
         $(b,debugged), or a CSV file."
  in
  let run () n runs assignment =
    let docs =
      match runs with
      | Some dir -> fst (manifest_event_docs dir)
      | None ->
          ignore (exercise_events_figure4 assignment);
          live_event_docs ()
    in
    if docs = [] then print_endline "(no events recorded)"
    else print_events_tail n docs
  in
  Cmd.v
    (Cmd.info "tail"
       ~doc:
         "Show the last K flight-recorder events before the run stopped — \
          by default the live replay of the paper's Figure-4 VC4 deadlock, \
          whose final window is the wb/readex interleaving that wedges the \
          channels, each firing decoded to its controller row.  With \
          $(b,--runs), the trailing window of the events persisted in run \
          manifests.")
    Term.(const run $ setup_term $ n $ runs_arg $ assignment)

let events_top_cmd =
  let max_states =
    Arg.(
      value
      & opt (count_conv "--max-states") 5_000
      & info [ "max-states" ] ~docv:"N"
          ~doc:
            "State budget of the model-checking run used to exercise the \
             recorder.")
  in
  let run () runs max_states =
    (* answering live, a small exploration fills the rings: fires and
       dedup at any degree, steals when domains > 1 *)
    if runs = None then ignore (Mcheck.Explore.run ~max_states exercise_cfg);
    print_canned stdout (attach_sys (Protocol.database ()) runs)
      (Systables.canned_in [ Events ])
  in
  Cmd.v
    (Cmd.info "top"
       ~doc:
         "Answer the flight-recorder canned queries — hottest rules by \
          recorded firings, per-domain steal counts, dedup hits vs inserts \
          by depth — as plain SQL over $(b,sys.events).")
    Term.(const run $ setup_term $ runs_arg $ max_states)

let events_dump_cmd =
  let json =
    Arg.(
      value & flag
      & info [ "json" ]
          ~doc:
            "Emit the asura-events/1 JSON document (the only format; the \
             flag exists for symmetry with other subcommands).")
  in
  let output =
    Arg.(
      value
      & opt (some string) None
      & info [ "o"; "output" ] ~docv:"FILE"
          ~doc:"Write the document to this file instead of standard output.")
  in
  let assignment =
    vc_arg ~doc:"Assignment for the live Figure-4 replay (as in tail)."
  in
  let run () _json output runs assignment =
    let doc =
      match runs with
      | Some dir ->
          let docs, dropped = manifest_event_docs dir in
          Obs.Flightrec.docs_to_json ~dropped docs
      | None ->
          ignore (exercise_events_figure4 assignment);
          Obs.Flightrec.to_json ()
    in
    let text = Obs.Json.to_string doc ^ "\n" in
    match output with
    | None -> print_string text
    | Some file ->
        let oc = open_out file in
        Fun.protect
          ~finally:(fun () -> close_out_noerr oc)
          (fun () -> output_string oc text);
        Printf.printf "wrote %d events to %s\n"
          (List.length (Obs.Flightrec.of_json doc))
          file
  in
  Cmd.v
    (Cmd.info "dump"
       ~doc:
         "Dump the flight recording as an asura-events/1 JSON document — \
          the live Figure-4 replay by default, or the concatenation of the \
          events embedded in run manifests with $(b,--runs).")
    Term.(const run $ setup_term $ json $ output $ runs_arg $ assignment)

let events_cmd =
  Cmd.group
    (Cmd.info "events"
       ~doc:
         "The exploration flight recorder: always-on per-domain rings of \
          packed events (rule firings, dedup, steals, visited-set growth, \
          solver steps) drained on violation, deadlock, signal or exit, \
          and queryable as the $(b,sys.events) system table.")
    [ events_tail_cmd; events_top_cmd; events_dump_cmd ]

(* ------------------------------ export ------------------------------- *)

(* Resolve a table name: controller table, ED, or implementation table. *)
let resolve_table name =
  match Protocol.find name with
  | Some c -> Protocol.Ctrl_spec.table c.Protocol.spec
  | None ->
      if name = "ED" then Mapping.Extend.ed ()
      else
        let db = Mapping.Partition.run () in
        (match Relalg.Database.find_opt db name with
        | Some t -> t
        | None ->
            Printf.eprintf "unknown table %s\n" name;
            exit 2)

let export_cmd =
  let table =
    Arg.(
      required
      & pos 0 (some string) None
      & info [] ~docv:"TABLE"
          ~doc:"Controller table (D M C N RAC IO PIF LK), ED, or an                 implementation table name.")
  in
  let output =
    Arg.(
      value
      & opt (some string) None
      & info [ "o"; "output" ] ~docv:"FILE"
          ~doc:"Write CSV to this file instead of standard output.")
  in
  let run () table output =
    let t = resolve_table table in
    match output with
    | None -> print_string (Relalg.Csv.to_string t)
    | Some filename ->
        Relalg.Csv.save ~filename t;
        Printf.printf "wrote %d rows to %s
" (Relalg.Table.cardinality t)
          filename
  in
  Cmd.v
    (Cmd.info "export"
       ~doc:"Export a generated table as CSV (SQL report generation).")
    Term.(const run $ setup_term $ table $ output)

(* ------------------------------- stats -------------------------------- *)

let stats_cmd =
  let table =
    Arg.(
      required
      & pos 0 (some string) None
      & info [] ~docv:"TABLE"
          ~doc:"Controller table (D M C N RAC IO PIF LK), ED, or an \
                implementation table name.")
  in
  let json =
    Arg.(
      value & flag
      & info [ "json" ]
          ~doc:"Emit the profile as a JSON object instead of text.")
  in
  let run () table json_flag =
    let p = Relalg.Profile.profile (resolve_table table) in
    if json_flag then print_endline (Obs.Json.to_string (Relalg.Profile.to_json p))
    else print_string (Relalg.Profile.to_string p)
  in
  Cmd.v
    (Cmd.info "stats"
       ~doc:
         "Profile a generated table: per-column distinct counts, NULL \
          sparsity and most-common values (the numbers behind the \
          paper's \"quite sparse\" observation), plus the columnar \
          storage footprint — total bytes, dictionary hit rate, and \
          per-column dictionary sizes.")
    Term.(const run $ setup_term $ table $ json)

(* ------------------------------ review ------------------------------- *)

let review_cmd =
  let full =
    Arg.(
      value & flag
      & info [ "full" ]
          ~doc:"Embed the complete controller tables and column constraints.")
  in
  let assignment =
    Arg.(
      value
      & opt assignment_conv Checker.Vcassign.debugged
      & info [ "a"; "assignment" ] ~docv:"ASSIGNMENT"
          ~doc:"Channel assignment to analyze (initial|vc4|debugged).")
  in
  let run () full assignment =
    let options =
      {
        Checker.Report.include_tables = full;
        include_constraints = full;
        assignment;
      }
    in
    print_string (Checker.Report.generate ~options ());
    (* executed transaction walkthroughs, Figure 2-style *)
    print_string (Sim.Walkthrough.to_markdown (Sim.Walkthrough.all ()))
  in
  Cmd.v
    (Cmd.info "review"
       ~doc:
         "Emit the enhanced-architecture-specification review document           (Markdown): tables, channel assignment, deadlock verdict,           invariants.")
    Term.(const run $ setup_term $ full $ assignment)

(* ------------------------------ report ------------------------------- *)

let report_cmd =
  let files =
    Arg.(
      non_empty
      & pos_all file []
      & info [] ~docv:"FILE"
          ~doc:
            "Run manifests (asura-run/1), bench snapshots (asura-bench/*) \
             or plan snapshots (asura-plans/1).  Any other document, such \
             as a table profile (asura-stats/1) or EXPLAIN ANALYZE output \
             (asura-explain/*), is skipped with a warning.")
  in
  let json =
    Arg.(
      value & flag
      & info [ "json" ]
          ~doc:
            "Emit every section's query result as JSON (schema \
             asura-report/2).")
  in
  let html =
    Arg.(value & flag & info [ "html" ] ~doc:"Render HTML instead of Markdown.")
  in
  let min_coverage =
    Arg.(
      value
      & opt (some float) None
      & info [ "min-coverage" ] ~docv:"PCT"
          ~doc:
            "Exit 1 if overall transition coverage across all manifests \
             is below $(docv) percent.")
  in
  let min_table =
    Arg.(
      value
      & opt_all (pair ~sep:'=' string float) []
      & info [ "min-table" ] ~docv:"TABLE=PCT"
          ~doc:
            "Exit 1 if coverage of one controller table is below $(docv) \
             percent (or the table appears in no manifest).  Repeatable.")
  in
  let max_uncovered =
    Arg.(
      value
      & opt (count_conv "--max-uncovered") 10
      & info [ "max-uncovered" ] ~docv:"N"
          ~doc:
            "Cap the decoded uncovered-transition listing per table (and \
             the plan and hottest-rule listings).")
  in
  let max_misest =
    Arg.(
      value
      & opt (some float) None
      & info [ "max-misest" ] ~docv:"RATIO"
          ~doc:
            "Exit 1 if any aggregated plan misestimates cardinality by \
             more than $(docv)x (worst per-operator estimated-vs-actual \
             row ratio, from the plan logs the manifests embed).")
  in
  let run () files json_flag html max_uncovered min_coverage min_table
      max_misest =
    (* A file that fails to read, parse or classify is skipped with a
       warning instead of aborting the report; only when every input is
       bad is there nothing to aggregate and exit 2 applies. *)
    let docs, unreadable = read_docs files in
    let db, misclassified = Systables.attach_docs docs Relalg.Database.empty in
    let skipped = unreadable @ misclassified in
    warn_skipped skipped;
    if List.length misclassified = List.length docs then begin
      prerr_endline "report: no usable input documents";
      exit 2
    end;
    let results = Systables.run_report db in
    if json_flag then
      print_endline (Obs.Json.to_string (Systables.report_json ~skipped results))
    else if html then
      print_string (Systables.report_html ~max_uncovered ~skipped results)
    else print_string (Systables.report_markdown ~max_uncovered ~skipped results);
    let failed = ref false in
    let gate fmt =
      Printf.ksprintf (fun msg -> prerr_endline msg; failed := true) fmt
    in
    let per_table = Systables.coverage_by_table results in
    (match min_coverage with
    | None -> ()
    | Some threshold ->
        let covered, rows =
          List.fold_left
            (fun (c, r) (_, rows, n) -> (c + n, r + rows))
            (0, 0) per_table
        in
        let overall = Obs.Coverage.percent ~covered ~rows in
        if overall < threshold then
          gate "coverage gate: overall %.1f%% is below the required %.1f%%"
            overall threshold);
    List.iter
      (fun (name, threshold) ->
        match List.find_opt (fun (n, _, _) -> n = name) per_table with
        | None -> gate "coverage gate: table %s appears in no manifest" name
        | Some (_, rows, covered) ->
            let pct = Obs.Coverage.percent ~covered ~rows in
            if pct < threshold then
              gate "coverage gate: table %s at %.1f%% is below the required %.1f%%"
                name pct threshold)
      min_table;
    Option.iter
      (fun threshold ->
        (* plans rows: fingerprint, site, query, ..., misest *)
        Relalg.Table.iter
          (fun r ->
            match r.(6) with
            | Relalg.Value.Float m when m > threshold ->
                gate
                  "plan gate: [%s] %s misestimates by %.1fx (fingerprint %s), \
                   above the allowed %.1fx"
                  (Relalg.Value.to_string r.(1)) (Relalg.Value.to_string r.(2))
                  m (Relalg.Value.to_string r.(0)) threshold
            | _ -> ())
          (Systables.section results "plans"))
      max_misest;
    if !failed then exit 1
  in
  Cmd.v
    (Cmd.info "report"
       ~doc:
         "Aggregate run manifests and bench snapshots into a report whose \
          every section is one SQL query over the manifest-backed sys. \
          tables, printed above its result so it can be rerun with \
          $(b,asura sql --runs): per-controller transition coverage, \
          uncovered rows decoded back to readable transitions, the \
          invariant hit matrix, bench pairs and baseline diff, plans, \
          flight-recorder rollups and the coverage trend.")
    Term.(
      const run $ setup_term $ files $ json $ html $ max_uncovered
      $ min_coverage $ min_table $ max_misest)

(* ------------------------------ explain ------------------------------ *)

let explain_cmd =
  let query =
    Arg.(
      required
      & pos 0 (some string) None
      & info [] ~docv:"QUERY" ~doc:"A SQL query to plan.")
  in
  let analyze =
    Arg.(
      value & flag
      & info [ "analyze" ]
          ~doc:
            "Actually execute the query against the controller-table \
             database through the cost-based planner and print \
             per-operator estimated vs. actual rows, cost and wall-clock \
             timings (EXPLAIN ANALYZE).")
  in
  let index =
    Arg.(
      value
      & opt_all (pair ~sep:'.' string string) []
      & info [ "index" ] ~docv:"TABLE.COLUMN"
          ~doc:
            "With $(b,--analyze): declare a hash index, letting the \
             planner turn an equality on that column into an index \
             lookup.  Repeatable.")
  in
  let json =
    Arg.(
      value & flag
      & info [ "json" ]
          ~doc:
            "With $(b,--analyze): emit the measured operator tree as a \
             JSON object instead of text.")
  in
  let run () query analyze indexes json_flag =
    if json_flag && not analyze then begin
      prerr_endline "explain: --json requires --analyze";
      exit 2
    end;
    let db = Protocol.database () in
    (* every section is rendered before anything is printed, so an error
       leaves only its [sql:] line *)
    with_sql_errors @@ fun () ->
    List.iter
      (fun (t, c) ->
        let schema = Relalg.Table.schema (Relalg.Database.find db t) in
        ignore (Relalg.Schema.index schema c))
      indexes;
    if analyze then begin
      let r = Relalg.Planner.analyze ~indexes db query in
      if json_flag then
        print_endline (Obs.Json.to_string (Relalg.Planner.to_json r))
      else
        Printf.printf "planner (est vs actual):\n%s"
          (Relalg.Planner.render_report r)
    end
    else
      let plan = Relalg.Plan.of_query (Relalg.Sql_parser.parse_query query) in
      let cost_based = Relalg.Planner.explain db query in
      Printf.printf
        "plan:\n%s\noptimized:\n%scost-based (est rows, cumulative cost):\n%s"
        (Relalg.Plan.explain plan)
        (Relalg.Plan.explain (Relalg.Plan.optimize plan))
        cost_based
  in
  Cmd.v
    (Cmd.info "explain"
       ~doc:
         "Show the logical query plan before and after optimization; \
          with --analyze, execute it and report per-operator row counts \
          and timings.")
    Term.(const run $ setup_term $ query $ analyze $ index $ json)

(* ------------------------------- plan -------------------------------- *)

(* Run the deterministic plan workload with telemetry on, so the live
   plan observatory has a reproducible population.  Returns the protocol
   database the workload ran against. *)
let exercise_plan_workload () =
  Obs.Config.enable ();
  let db = Protocol.database () in
  Systables.run_plan_workload db;
  db

let plan_top_cmd =
  let run () runs =
    (* with --runs, answer from the plans the manifests carry instead of
       re-running the workload *)
    let db =
      if runs = None then exercise_plan_workload () else Protocol.database ()
    in
    print_canned stdout (attach_sys db runs) (Systables.canned_in [ Plan ])
  in
  Cmd.v
    (Cmd.info "top"
       ~doc:
         "Run the deterministic plan workload and answer the plan canned \
          queries — hottest plans by total time and worst cardinality \
          misestimates — as plain SQL over $(b,sys.plans).")
    Term.(const run $ setup_term $ runs_arg)

let plan_snapshot_cmd =
  let output =
    Arg.(
      value
      & opt (some string) None
      & info [ "o"; "output" ] ~docv:"FILE"
          ~doc:
            "Write the asura-plans/1 document to this file instead of \
             standard output.")
  in
  let run () output runs =
    let json =
      match runs with
      | Some dir ->
          (* aggregate the plan logs the manifests under DIR embed *)
          let docs = load_run_docs dir in
          Obs.Planlog.entries_to_json
            (Obs.Planlog.aggregate
               (List.map (fun (_, doc) -> Obs.Planlog.of_json doc) docs))
      | None ->
          ignore (exercise_plan_workload ());
          Obs.Planlog.to_json ()
    in
    let text = Obs.Json.to_string json ^ "\n" in
    match output with
    | None -> print_string text
    | Some file ->
        let oc = open_out file in
        Fun.protect
          ~finally:(fun () -> close_out_noerr oc)
          (fun () -> output_string oc text);
        Printf.printf "wrote %d plans to %s\n"
          (List.length (Obs.Planlog.of_json json))
          file
  in
  Cmd.v
    (Cmd.info "snapshot"
       ~doc:
         "Capture a plan baseline (schema asura-plans/1): run the \
          deterministic plan workload and dump every recorded plan with \
          its structural fingerprint and est-vs-actual telemetry — or, \
          with $(b,--runs), aggregate the plan logs embedded in run \
          manifests.  Commit the output and gate on it with $(b,asura \
          plan diff --strict).")
    Term.(const run $ setup_term $ output $ runs_arg)

let plan_diff_cmd =
  let old_file =
    Arg.(
      required
      & pos 0 (some file) None
      & info [] ~docv:"OLD"
          ~doc:"Baseline plan document (asura-plans/1 or a run manifest).")
  in
  let new_file =
    Arg.(
      required
      & pos 1 (some file) None
      & info [] ~docv:"NEW" ~doc:"Plan document to compare against OLD.")
  in
  let strict =
    Arg.(
      value & flag
      & info [ "strict" ]
          ~doc:
            "Exit 1 when any plan changed, appeared or disappeared — the \
             CI plan-regression gate.")
  in
  let run () old_file new_file strict =
    (* only a document that carries plans is compared: a bench snapshot
       or a schema-less file would otherwise diff as an empty plan set
       and pass the strict gate vacuously *)
    let load f =
      let fail msg =
        Printf.eprintf "plan diff: %s: %s\n" f msg;
        exit 2
      in
      match Obs.Json.parse (read_file f) with
      | Error msg -> fail msg
      | Ok j -> (
          match Systables.classify j with
          | Ok (`Run _ | `Plans) -> Obs.Planlog.of_json j
          | Ok `Bench -> fail "a bench snapshot carries no plans"
          | Error reason -> fail reason)
      | exception Sys_error msg ->
          Printf.eprintf "plan diff: %s\n" msg;
          exit 2
    in
    let changes, unchanged = Obs.Planlog.diff (load old_file) (load new_file) in
    List.iter (fun c -> print_string (Obs.Planlog.render_change c)) changes;
    Printf.printf "%d plans changed, %d unchanged\n" (List.length changes)
      unchanged;
    if strict && changes <> [] then exit 1
  in
  Cmd.v
    (Cmd.info "diff"
       ~doc:
         "Compare two plan documents by (site, query): report every plan \
          whose structural fingerprint changed, appeared or disappeared, \
          with per-operator estimated-vs-actual deltas.  Execution counts \
          and timings are deliberately not compared, so two runs of the \
          same workload at different speeds diff clean.")
    Term.(const run $ setup_term $ old_file $ new_file $ strict)

let plan_cmd =
  Cmd.group
    (Cmd.info "plan"
       ~doc:
         "The plan observatory: capture, inspect and gate on the query \
          planner's decisions.  Every planner execution records a \
          structural fingerprint plus per-operator estimated-vs-actual \
          telemetry, queryable as $(b,sys.plans) / $(b,sys.plan_ops) and \
          diffable across commits.")
    [ plan_top_cmd; plan_snapshot_cmd; plan_diff_cmd ]

let () =
  let doc =
    "table-driven cache-coherence protocol design and early error \
     detection using SQL (IPPS 2003 reproduction)"
  in
  exit
    (Cmd.eval
       (Cmd.group
          (Cmd.info "asura" ~version:"1.0.0" ~doc)
          [
            generate_cmd; invariants_cmd; deadlock_cmd; why_cmd; map_cmd;
            simulate_cmd; mcheck_cmd; sql_cmd; top_cmd; review_cmd;
            report_cmd; explain_cmd; export_cmd; stats_cmd; plan_cmd;
            events_cmd;
          ]))
