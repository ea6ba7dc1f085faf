(* The explicit-state model-checker baseline, driven by the generated
   controller tables. *)

open Mcheck

let check = Alcotest.(check bool)
let check_int = Alcotest.(check int)
let tables = lazy (Semantics.load_tables ())

let config ?(nodes = 2) ?(addrs = 1) ?(capacity = 3) ?(io_addrs = []) ops =
  { Semantics.nodes; addrs; ops; capacity; io_addrs; lossy = false }

let run ?(max_states = 120_000) cfg =
  Explore.run ~max_states ~tables:(Lazy.force tables) cfg

let test_state_basics () =
  let st = Mstate.initial ~nodes:2 ~addrs:1 in
  check "initially quiescent" true (Mstate.quiescent st);
  check_int "no messages" 0 (List.length (Mstate.queue_heads st));
  let read = Mstate.intern "read" in
  let msg = { Mstate.m = read; src = 0; dst = Mstate.dir; addr = 0; fresh = true } in
  let st = Mstate.enqueue st ~cls:Mstate.reqq msg in
  check "not quiescent with traffic" false (Mstate.quiescent st);
  (match Mstate.dequeue st (0, Mstate.dir, Mstate.reqq) with
  | Some (m, st') ->
      check "fifo returns the message" true (m.Mstate.m = read);
      check "dequeue empties" true (Mstate.quiescent st')
  | None -> Alcotest.fail "dequeue failed");
  check "keys are canonical" true (Mstate.key st = Mstate.key st)

let test_fifo_order () =
  let st = Mstate.initial ~nodes:1 ~addrs:1 in
  let m name =
    { Mstate.m = Mstate.intern name; src = 0; dst = Mstate.dir; addr = 0; fresh = true }
  in
  let st =
    Mstate.enqueue (Mstate.enqueue st ~cls:Mstate.reqq (m "first")) ~cls:Mstate.reqq
      (m "second")
  in
  match Mstate.dequeue st (0, Mstate.dir, Mstate.reqq) with
  | Some (x, st') ->
      check "fifo head" true (Mstate.name x.Mstate.m = "first");
      check "fifo second" true
        (match Mstate.dequeue st' (0, Mstate.dir, Mstate.reqq) with
        | Some (y, _) -> Mstate.name y.Mstate.m = "second"
        | None -> false)
  | None -> Alcotest.fail "dequeue failed"

(* The symbol table: class ids order like the class strings (so queue,
   successor and BFS order are the string-keyed model's), names round
   trip, and interning is the main domain's alone while any domain may
   read. *)
let test_symbols () =
  let classes = Mstate.[ ackq; memq; reqq; resp; respq; snp ] in
  Alcotest.(check (list string)) "class ids sort like the class strings"
    (List.sort String.compare (List.map Mstate.name classes))
    (List.map Mstate.name (List.sort Int.compare classes));
  let s = Mstate.intern "Busy-readex-sd" in
  check_int "interning is idempotent" s (Mstate.intern "Busy-readex-sd");
  Alcotest.(check string) "name inverts intern" "Busy-readex-sd" (Mstate.name s);
  Alcotest.(check (option int)) "find reads without interning" None
    (Mstate.find "never-interned-symbol");
  let off_main =
    Domain.join
      (Domain.spawn (fun () ->
           let read = Mstate.name s in
           match Mstate.intern "Busy-readex-sd" with
           | _ -> read, false
           | exception Invalid_argument _ -> read, true))
  in
  Alcotest.(check (pair string bool)) "off the main domain: name reads, intern raises"
    ("Busy-readex-sd", true) off_main

let test_pv_encode () =
  Alcotest.(check string) "zero" "zero" (Mstate.pv_encode 0);
  Alcotest.(check string) "one" "one" (Mstate.pv_encode 0b100);
  Alcotest.(check string) "gone" "gone" (Mstate.pv_encode 0b101);
  check_int "popcount" 3 (Mstate.popcount 0b1011)

let test_single_transaction () =
  (* one load: issue, mread, mdata, data, ack; quiescent with S line *)
  let cfg = config ~nodes:1 [ "load" ] in
  let r = run cfg in
  check "complete" true r.Explore.complete;
  check "no violations" true (r.Explore.violation = None);
  check "non-trivial state count" true (r.Explore.explored > 5)

let test_load_store_clean () =
  let r = run (config [ "load"; "store" ]) in
  check "complete" true r.Explore.complete;
  check "no violations" true (r.Explore.violation = None)

let test_full_workload_clean () =
  let r = run (config [ "load"; "store"; "evictmod"; "evictsh" ]) in
  check "complete" true r.Explore.complete;
  check "no violations" true (r.Explore.violation = None)

let test_state_explosion_with_nodes () =
  (* the paper's argument against model checkers: growth in node count *)
  let states n =
    (run ~max_states:60_000 (config ~nodes:n [ "load"; "store" ])).Explore.explored
  in
  let s2 = states 2 and s3 = states 3 in
  check "3 nodes blow up vs 2 nodes" true (s3 > 3 * s2)

let test_seeded_hang_found () =
  (* drop the last-idone row: Busy-readex-sd never drains; the checker
     must report the wedge with a concrete trace *)
  let spec' =
    Protocol.Ctrl_spec.drop_scenario Protocol.Dir_controller.spec
      "readex-idone-sd-last"
  in
  let tables' = Semantics.load_tables_with ~dir:spec' () in
  let r =
    Explore.run ~max_states:200_000 ~tables:tables'
      (config ~nodes:3 [ "load"; "store" ])
  in
  match r.Explore.violation with
  | Some v ->
      check "found a problem" true
        (v.Explore.kind = `Deadlock || v.Explore.kind = `Unhandled);
      check "has a trace" true (v.Explore.trace <> [])
  | None -> Alcotest.fail "seeded hang not found"

let test_seeded_stale_data_found () =
  (* drop the sharing writeback: a read after a dirty downgrade and a
     silent eviction returns stale memory *)
  let spec' =
    Protocol.Ctrl_spec.map_scenario Protocol.Dir_controller.spec
      "read-sdata-grant"
      (fun s ->
        { s with emit = List.filter (fun (c, _) -> c <> "memmsg") s.emit })
  in
  let tables' = Semantics.load_tables_with ~dir:spec' () in
  let r =
    Explore.run ~max_states:300_000 ~tables:tables'
      (config [ "load"; "store"; "evictmod"; "evictsh" ])
  in
  match r.Explore.violation with
  | Some v -> check "stale data detected" true (v.Explore.kind = `Stale_data)
  | None -> Alcotest.fail "stale data not found"

let test_io_workload_clean () =
  (* one I/O line served by the device-bus controller: ioread/iowrite
     serialize through the busy directory like everything else *)
  let cfg = config ~nodes:2 ~io_addrs:[ 0 ] [ "ioload"; "iostore" ] in
  let r = run cfg in
  check "complete" true r.Explore.complete;
  check "no violations" true (r.Explore.violation = None);
  check "explored io interleavings" true (r.Explore.explored > 20)

let test_mixed_spaces_clean () =
  (* a memory line and an I/O line side by side *)
  let cfg =
    config ~nodes:2 ~addrs:2 ~io_addrs:[ 1 ]
      [ "load"; "store"; "ioload"; "iostore" ]
  in
  let r = run ~max_states:200_000 cfg in
  check "no violations" true (r.Explore.violation = None)

let test_lock_workload_clean () =
  (* lock/unlock ride the directory like tiny transactions: contention
     resolves through retry, no coherence machinery is touched *)
  let cfg = config ~nodes:2 [ "lockacq"; "lockrel" ] in
  let r = run cfg in
  check "complete" true r.Explore.complete;
  check "no violations" true (r.Explore.violation = None)

let test_symmetry_reduction () =
  (* the canonical key must respect permutation orbits... *)
  let st = Mcheck.Mstate.initial ~nodes:3 ~addrs:1 in
  let s = Mcheck.Mstate.intern "S" in
  let st_a = Mcheck.Mstate.set_cache st ~node:0 ~addr:0 s in
  let st_b = Mcheck.Mstate.set_cache st ~node:2 ~addr:0 s in
  check "permuted states share a canonical key" true
    (Mcheck.Mstate.canonical_key ~nodes:3 st_a
    = Mcheck.Mstate.canonical_key ~nodes:3 st_b);
  check "distinct states keep distinct keys" false
    (Mcheck.Mstate.canonical_key ~nodes:3 st_a
    = Mcheck.Mstate.canonical_key ~nodes:3 st);
  (* ... and the reduced search gives the same verdict on fewer states *)
  let cfg = config ~nodes:3 [ "load"; "store" ] in
  let plain = run ~max_states:200_000 cfg in
  let reduced =
    Explore.run ~max_states:200_000 ~symmetry:true ~tables:(Lazy.force tables) cfg
  in
  check "same verdict" true
    (plain.Explore.violation = None && reduced.Explore.violation = None);
  check "both complete" true (plain.Explore.complete && reduced.Explore.complete);
  check "at least 3x fewer states" true
    (3 * reduced.Explore.explored < plain.Explore.explored)

let test_symmetry_still_finds_bugs () =
  let spec' =
    Protocol.Ctrl_spec.map_scenario Protocol.Dir_controller.spec
      "read-sdata-grant"
      (fun s ->
        { s with emit = List.filter (fun (c, _) -> c <> "memmsg") s.emit })
  in
  let tables' = Semantics.load_tables_with ~dir:spec' () in
  let r =
    Explore.run ~max_states:300_000 ~symmetry:true ~tables:tables'
      (config [ "load"; "store"; "evictmod"; "evictsh" ])
  in
  check "stale data still found under symmetry" true
    (match r.Explore.violation with
    | Some v -> v.Explore.kind = `Stale_data
    | None -> false)

let test_lossy_links_found () =
  (* with faulty links the protocol has no recovery: the checker finds a
     wedge (the paper's protocol likewise assumes reliable channels) *)
  let cfg =
    { (config [ "load"; "store" ]) with Semantics.lossy = true }
  in
  let r = run ~max_states:150_000 cfg in
  (match r.Explore.violation with
  | Some v ->
      check "wedge or orphan found" true
        (v.Explore.kind = `Deadlock || v.Explore.kind = `Coherence);
      check "a DROP appears in the trace" true
        (List.exists
           (fun l -> String.length l >= 4 && String.sub l 0 4 = "DROP")
           v.Explore.trace)
  | None -> Alcotest.fail "loss tolerated?");
  (* the orphaned-transaction invariant stays silent without loss *)
  let clean = run (config [ "load"; "store" ]) in
  check "loss-free run clean under the orphan invariant" true
    (clean.Explore.violation = None)

(* The all-ops and lossy searches differ in ops and lossiness but share
   one packed layout (it reads only nodes, addrs and capacity).
   Alternating them on one tables value must give what each gives on a
   tables value of its own. *)
let test_alternating_searches_share_layout () =
  let all_ops = config [ "load"; "store"; "evictmod"; "evictsh" ] in
  let lossy = { (config [ "load"; "store" ]) with Semantics.lossy = true } in
  let observe (r : Explore.result) =
    ( r.explored,
      r.transitions,
      Option.map (fun (v : Explore.violation) -> (v.kind, v.trace)) r.violation )
  in
  let solo cfg =
    observe (Explore.run ~tables:(Semantics.load_tables ()) cfg)
  in
  let ((explored, _, _) as solo_all) = solo all_ops
  and ((_, _, violation) as solo_lossy) = solo lossy in
  check_int "all ops explored" 16_188 explored;
  check "lossy finds a violation" true (violation <> None);
  let tables = Semantics.load_tables () in
  List.iteri
    (fun i (cfg, want) ->
      check
        (Printf.sprintf "search %d matches its solo run" i)
        true
        (observe (Explore.run ~tables cfg) = want))
    [ (all_ops, solo_all); (lossy, solo_lossy); (all_ops, solo_all);
      (lossy, solo_lossy) ]

let test_bounded_search_reports_incomplete () =
  let r = run ~max_states:50 (config ~nodes:3 [ "load"; "store" ]) in
  check "bounded" false r.Explore.complete;
  check_int "respected the bound" 50 r.Explore.explored

(* [elapsed] is wall time: with two stealing domains, process CPU time
   would sum both domains' work and exceed the wall clock around the
   call. *)
let test_elapsed_is_wall_time () =
  let search () =
    Explore.run ~symmetry:true ~tables:(Lazy.force tables)
      (config ~nodes:3 [ "load"; "store" ])
  in
  Par.Pool.with_domains 2 (fun () ->
      (* warm the table load and the packed-layout cache, which run on
         one domain *)
      ignore (search ());
      let r, ns = Obs.Clock.timed search in
      check "complete" true r.Explore.complete;
      check
        (Printf.sprintf "elapsed %.3fs <= wall %.3fs" r.Explore.elapsed
           (Obs.Clock.to_s ns))
        true
        (r.Explore.elapsed <= Obs.Clock.to_s ns))

(* Production is the packed stealing engine at every degree; at one
   domain its single FIFO queue is the reference BFS, so even the
   schedule-dependent observables (per-depth counts, depth) match. *)
let test_default_engine_is_packed () =
  let cfg = config [ "load"; "store" ] in
  let observe (r : Explore.result) =
    ( r.explored, r.transitions, r.dedup_hits, r.per_depth, r.max_depth,
      r.states )
  in
  Par.Pool.with_domains 1 (fun () ->
      let tables = Lazy.force tables in
      let r = Explore.run ~keep_states:true ~tables cfg in
      let oracle = Explore.run_reference ~keep_states:true ~tables cfg in
      Alcotest.(check string) "default engine" "steal" r.Explore.engine;
      Alcotest.(check string) "oracle engine" "seq" oracle.Explore.engine;
      check "complete" true r.Explore.complete;
      check "same counts, depth profile and reachable states" true
        (observe r = observe oracle))

(* The packed layout holds per-field widths and dictionaries only, so
   building it costs the same at 9 nodes as at 2; a table of all
   [nodes!] permutations would allocate tens of millions of words. *)
let test_layout_not_factorial () =
  let tables = Lazy.force tables in
  let words () =
    let minor, promoted, major = Gc.counters () in
    minor +. major -. promoted
  in
  (* warm the one-off vocabulary harvest *)
  ignore (Explore.layout_of_tables tables (config [ "load"; "store" ]));
  let before = words () in
  ignore
    (Sys.opaque_identity
       (Explore.layout_of_tables tables (config ~nodes:9 [ "load"; "store" ])));
  let allocated = words () -. before in
  check
    (Printf.sprintf "9-node layout allocated %.0f words (< 1M)" allocated)
    true (allocated < 1e6)

(* Nodes 16 and up hold sharer-mask bits like any other: a store must
   snoop a sharer at node 16, and the state printer must list it. *)
let test_snoops_reach_high_nodes () =
  let tables = Lazy.force tables in
  let cfg = config ~nodes:17 [ "load"; "store" ] in
  let snooped = ref [] in
  let rec drain st =
    check "no violation on the way" true
      (Semantics.state_violations cfg st = []);
    match Mstate.queue_heads st with
    | [] -> st
    | ((src, dst, cls), msg) :: _ -> (
        if cls = Mstate.snp then
          snooped := (dst, Mstate.name msg.Mstate.m) :: !snooped;
        match Mstate.dequeue st (src, dst, cls) with
        | None -> assert false
        | Some (_, st') -> (
            match Semantics.deliver ~config:cfg tables st' ~cls ~dst msg with
            | Semantics.Next st'' -> drain st''
            | Semantics.Broken r -> Alcotest.fail r))
  in
  let issue node op st =
    drain
      (Option.get
         (Semantics.issue_op tables st ~node ~addr:0 ~op:(Mstate.intern op)))
  in
  let shared =
    issue 3 "load" (issue 16 "load" (Mstate.initial ~nodes:17 ~addrs:1))
  in
  let printed = Format.asprintf "%a" Mstate.pp shared in
  check (Printf.sprintf "pp lists both sharers: %s" printed) true
    (Test_graph.contains printed "sharers={3,16}");
  let st = issue 0 "store" shared in
  check "node 16 was sent the sinv" true (List.mem (16, "sinv") !snooped);
  check "node 3 was sent the sinv" true (List.mem (3, "sinv") !snooped);
  check "queues drained" true (Mstate.quiescent st);
  Alcotest.(check string) "node 16 invalidated" "I"
    (Mstate.name (Mstate.cache st ~node:16 ~addr:0));
  Alcotest.(check string) "node 0 owns the line" "M"
    (Mstate.name (Mstate.cache st ~node:0 ~addr:0))

(* Coded dispatch against the naive first-match scan, with no search in
   between: the compiled rulesets of all six tables, bindings drawn per
   column from its guard vocabulary, a string outside it, or absent. *)
let dispatches =
  lazy (Semantics.dispatches (Semantics.index_tables (Lazy.force tables)))

let vocabulary rules col =
  List.sort_uniq String.compare
    (List.filter_map
       (fun (r : Mapping.Codegen.rule) -> List.assoc_opt col r.guard)
       rules)

(* [values.(slot)]: the string bound at that slot, [None] for absent *)
let same_row rules d values =
  let codes = Dispatch.binding d in
  Array.iteri
    (fun slot v ->
      match v with
      | Some v -> Dispatch.set d codes slot (Mstate.intern v)
      | None -> codes.(slot) <- Dispatch.absent)
    values;
  let named =
    List.filter_map
      (fun (c, v) -> Option.map (fun v -> (c, v)) v)
      (Array.to_list (Array.map2 (fun c v -> (c, v)) (Dispatch.columns d) values))
  in
  let coded = Option.map (fun (r : Dispatch.rule) -> r.row) (Dispatch.find d codes) in
  let naive =
    Option.map
      (fun (r : Mapping.Codegen.rule) -> r.row)
      (Mapping.Codegen.eval_rule rules named)
  in
  (coded = naive, coded)

(* The controller tables never overlap (no binding meets two guards), so
   on them rule priority is unobservable.  Loosened samples do overlap:
   a handful of a table's rules in random order, each guard pair dropped
   with probability 1/3, compiled over the same columns. *)
let loosened_gen table_rules cols =
  QCheck.Gen.(
    let* picked = list_size (int_range 2 24) (oneofl table_rules) in
    let* rules =
      flatten_l
        (List.map
           (fun (r : Mapping.Codegen.rule) ->
             let* kept =
               flatten_l
                 (List.map
                    (fun pair ->
                      map
                        (fun keep -> if keep then Some pair else None)
                        (frequencyl [ (2, true); (1, false) ]))
                    r.guard)
             in
             return { r with guard = List.filter_map Fun.id kept })
           picked)
    in
    return
      ( rules,
        Dispatch.compile ~inputs:(Array.map Dispatch.state cols) ~outputs:[||]
          rules ))

let dispatch_case_gen =
  QCheck.Gen.(
    (* draw an index, so the tables load when the first case is drawn,
       not when the suite is built *)
    let* k = int_bound 5 in
    let name, table_rules, d = List.nth (Lazy.force dispatches) k in
    let* loosened = bool in
    let* rules, d =
      if loosened then loosened_gen table_rules (Dispatch.columns d)
      else return (table_rules, d)
    in
    (* start from a rule's own guard so bindings land near rules *)
    let* seed = oneofl rules in
    let* values =
      flatten_a
        (Array.map
           (fun c ->
             let vocab = vocabulary rules c in
             frequency
               ([ (3, return (List.assoc_opt c seed.Mapping.Codegen.guard));
                  (1, return (Some "not-a-guard-value"));
                  (1, return None) ]
               @ if vocab = [] then []
                 else [ (2, map Option.some (oneofl vocab)) ]))
           (Dispatch.columns d))
    in
    let label = if loosened then name ^ " (loosened sample)" else name in
    return (label, rules, d, values))

let print_dispatch_case (label, rules, d, values) =
  Printf.sprintf "%s, rows [%s]: %s" label
    (String.concat ";"
       (List.map (fun (r : Mapping.Codegen.rule) -> string_of_int r.row) rules))
    (String.concat " "
       (Array.to_list
          (Array.map2
             (fun c v -> c ^ "=" ^ Option.value v ~default:"<absent>")
             (Dispatch.columns d) values)))

let prop_dispatch_matches_scan =
  QCheck.Test.make ~count:2000
    ~name:
      "coded dispatch fires the naive scan's row on all six tables and \
       loosened samples"
    (QCheck.make dispatch_case_gen ~print:print_dispatch_case)
    (fun (_, rules, d, values) -> fst (same_row rules d values))

let test_dispatch_own_rows () =
  let tables = Lazy.force dispatches in
  check_int "six compiled tables" 6 (List.length tables);
  List.iter
    (fun (name, rules, d) ->
      List.iter
        (fun (r : Mapping.Codegen.rule) ->
          let values =
            Array.map (fun c -> List.assoc_opt c r.guard) (Dispatch.columns d)
          in
          let same, fired = same_row rules d values in
          check
            (Printf.sprintf "%s row %d: same row, and one fires" name r.row)
            true
            (same && fired <> None))
        rules)
    tables

let suite =
  [
    Alcotest.test_case "state basics" `Quick test_state_basics;
    Alcotest.test_case "fifo ordering" `Quick test_fifo_order;
    Alcotest.test_case "pv encoding" `Quick test_pv_encode;
    Alcotest.test_case "symbol table and its domain rule" `Quick test_symbols;
    Alcotest.test_case "single transaction" `Quick test_single_transaction;
    Alcotest.test_case "load/store exhaustive" `Slow test_load_store_clean;
    Alcotest.test_case "full workload exhaustive" `Slow test_full_workload_clean;
    Alcotest.test_case "state explosion with node count" `Slow test_state_explosion_with_nodes;
    Alcotest.test_case "seeded hang found with trace" `Slow test_seeded_hang_found;
    Alcotest.test_case "seeded stale data found" `Slow test_seeded_stale_data_found;
    Alcotest.test_case "io workload exhaustive" `Slow test_io_workload_clean;
    Alcotest.test_case "mixed address spaces" `Slow test_mixed_spaces_clean;
    Alcotest.test_case "lock workload exhaustive" `Slow test_lock_workload_clean;
    Alcotest.test_case "lossy links produce wedges" `Quick test_lossy_links_found;
    Alcotest.test_case "symmetry reduction" `Slow test_symmetry_reduction;
    Alcotest.test_case "symmetry preserves bug finding" `Slow test_symmetry_still_finds_bugs;
    Alcotest.test_case "alternating searches share one layout" `Quick
      test_alternating_searches_share_layout;
    Alcotest.test_case "bounded search reports incomplete" `Quick test_bounded_search_reports_incomplete;
    Alcotest.test_case "elapsed is wall time" `Quick test_elapsed_is_wall_time;
    Alcotest.test_case "default engine is packed at one domain" `Quick test_default_engine_is_packed;
    Alcotest.test_case "layout cost is not factorial in nodes" `Quick
      test_layout_not_factorial;
    Alcotest.test_case "snoops reach nodes 16 and up" `Quick
      test_snoops_reach_high_nodes;
    Alcotest.test_case "coded dispatch on every row's own binding" `Quick
      test_dispatch_own_rows;
    Test_seed.to_alcotest prop_dispatch_matches_scan;
  ]
