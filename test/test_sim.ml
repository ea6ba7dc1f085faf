(* The queue-accurate simulator and the Figure 4 replay. *)

open Sim

let check = Alcotest.(check bool)
let check_int = Alcotest.(check int)

let check_str = Alcotest.(check string)

(* V resolved with [cap] slots per channel *)
let resolved ?(cap = 1) v =
  (Runner.config ~nodes:2 ~addrs:1 ~capacity:(Runner.uniform_capacity cap) v)
    .channels

let channel_name vcs ~cls ~src msg =
  let c = Mcheck.Vcmap.channel vcs ~cls ~src (Mcheck.Mstate.intern msg) in
  if c = Mcheck.Vcmap.dedicated then "dedicated" else Mcheck.Vcmap.name vcs c

let in_flight st cls msgs =
  List.fold_left
    (fun st (m, src, dst) ->
      Mcheck.Mstate.enqueue st ~cls
        { Mcheck.Mstate.m = Mcheck.Mstate.intern m; src; dst; addr = 0;
          fresh = true })
    st msgs

let test_channel_mapping () =
  let open Mcheck.Mstate in
  let vc4 = resolved Checker.Vcassign.with_vc4 in
  let ch = channel_name vc4 in
  check_str "request on VC0" "VC0" (ch ~cls:reqq ~src:0 "readex");
  check_str "snoop on VC1" "VC1" (ch ~cls:snp ~src:dir "sinv");
  check_str "snoop response on VC2" "VC2" (ch ~cls:respq ~src:1 "idone");
  check_str "grant on VC3" "VC3" (ch ~cls:resp ~src:dir "datax");
  check_str "memory request on VC4" "VC4" (ch ~cls:memq ~src:dir "mread");
  check_str "memory response on VC2" "VC2" (ch ~cls:respq ~src:mem "mack");
  check_str "completion acks are dedicated" "dedicated"
    (ch ~cls:ackq ~src:0 "compl");
  check_str "mread dedicated after the fix" "dedicated"
    (channel_name (resolved Checker.Vcassign.debugged) ~cls:memq ~src:dir
       "mread");
  (* two acks and two mreads on their dedicated paths, one slot per
     channel: nothing is counted, so nothing blocks *)
  let st =
    in_flight
      (in_flight (initial ~nodes:2 ~addrs:1) ackq
         [ "compl", 0, dir; "compl", 1, dir ])
      memq [ "mread", dir, mem; "mread", dir, mem ]
  in
  let debugged = resolved Checker.Vcassign.debugged in
  Alcotest.(check (list (pair string int))) "dedicated never counts" []
    (Mcheck.Vcmap.occupancy debugged st);
  check "dedicated never blocks" true (Mcheck.Vcmap.fits debugged st)

let test_occupancy () =
  let open Mcheck.Mstate in
  let v = Checker.Vcassign.with_vc4 in
  let st =
    in_flight (initial ~nodes:2 ~addrs:1) reqq
      [ "readex", 0, dir; "wb", 1, dir ]
  in
  Alcotest.(check (list (pair string int))) "two requests on VC0"
    [ "VC0", 2 ] (Mcheck.Vcmap.occupancy (resolved v) st);
  check "over capacity 1" false (Mcheck.Vcmap.fits (resolved ~cap:1 v) st);
  check "within capacity 2" true (Mcheck.Vcmap.fits (resolved ~cap:2 v) st)

(* The mapping the resolver replaced, kept here only as its oracle: a
   FIFO class names a role pair, then V is looked up by strings. *)
let lookup_channel v ~cls ~src msg =
  let roles =
    match cls with
    | "ackq" -> None
    | "reqq" -> Some ("local", "home")
    | "snp" -> Some ("home", "remote")
    | "resp" -> Some ("home", "local")
    | "memq" -> Some ("home", "home")
    | "respq" ->
        Some (if src = Mcheck.Mstate.mem then "home", "home" else "remote", "home")
    | _ -> Some ("local", "home")
  in
  match roles with
  | None -> "dedicated"
  | Some (s, d) ->
      Option.value ~default:"dedicated"
        (Checker.Vcassign.lookup v ~msg ~src:s ~dst:d)

let test_resolver_matches_lookup () =
  let path =
    List.find Sys.file_exists [ "../examples/vc2_vc4"; "examples/vc2_vc4" ]
  in
  let file =
    Checker.Vcassign.of_csv ~name:"vc2_vc4"
      (In_channel.with_open_text path In_channel.input_all)
  in
  let vocab =
    List.sort_uniq String.compare
      (List.concat_map snd
         (Mcheck.Semantics.pack_vocab (Lazy.force Runner.tables)))
  in
  let open Mcheck.Mstate in
  let on_vc = ref 0 in
  List.iter
    (fun (v : Checker.Vcassign.t) ->
      let vcs = resolved v in
      List.iter
        (fun cls ->
          List.iter
            (fun src ->
              List.iter
                (fun msg ->
                  let want = lookup_channel v ~cls:(name cls) ~src msg in
                  let got = channel_name vcs ~cls ~src msg in
                  if got <> want then
                    Alcotest.failf "%s: %s from %d on %s: resolved %s, V says %s"
                      v.name msg src (name cls) got want;
                  if got <> "dedicated" then incr on_vc)
                vocab)
            [ 0; 1; dir; mem ])
        [ ackq; memq; reqq; resp; respq; snp ])
    (Checker.Vcassign.standard @ [ file ]);
  check "some messages ride virtual channels" true (!on_vc > 0)

let test_readex_walkthrough () =
  let result, trace = Scenario.readex_walkthrough Checker.Vcassign.debugged in
  (match result with
  | Runner.Quiescent _ -> ()
  | Runner.Deadlock _ -> Alcotest.fail "walkthrough wedged");
  (* the Figure 2 message sequence appears in order *)
  let find needle =
    let rec go i = function
      | [] -> None
      | l :: rest ->
          if
            String.length l >= String.length needle
            && String.sub l 0 (String.length needle) = needle
          then Some i
          else go (i + 1) rest
    in
    go 0 trace
  in
  let pos s = Option.get (find s) in
  check "readex before sinv" true (pos "deliver readex" < pos "deliver sinv");
  check "sinv before idone" true (pos "deliver sinv" < pos "deliver idone");
  check "idone before datax" true (pos "deliver idone" < pos "deliver datax");
  check "two sharers invalidated" true
    (List.length (List.filter (fun l -> find "deliver idone" <> None && String.length l > 13 && String.sub l 0 13 = "deliver idone") trace) = 2)

let test_contention_serializes () =
  let result, trace = Scenario.contention Checker.Vcassign.debugged in
  (match result with
  | Runner.Quiescent _ -> ()
  | Runner.Deadlock _ -> Alcotest.fail "contention wedged");
  check "a retry was issued" true
    (List.exists
       (fun l -> String.length l >= 13 && String.sub l 0 13 = "deliver retry")
       trace)

let test_figure4_deadlock () =
  match fst (Scenario.figure4 Checker.Vcassign.with_vc4) with
  | Runner.Deadlock { occupancy; blocked; _ } ->
      check "VC2 occupied" true (List.mem_assoc "VC2" occupancy);
      check "VC4 occupied" true (List.mem_assoc "VC4" occupancy);
      check_int "both parties blocked" 2 (List.length blocked)
  | Runner.Quiescent _ -> Alcotest.fail "expected the Figure 4 deadlock"

let test_figure4_fix_drains () =
  match fst (Scenario.figure4 Checker.Vcassign.debugged) with
  | Runner.Quiescent { steps } -> check "made progress" true (steps > 10)
  | Runner.Deadlock _ -> Alcotest.fail "debugged assignment wedged"

let test_figure4_blocked_parties () =
  (* the wedge is exactly the paper's circular wait: the directory stuck
     on a memory response, memory stuck on a directory-bound writeback *)
  match fst (Scenario.figure4 Checker.Vcassign.with_vc4) with
  | Runner.Deadlock { blocked; _ } ->
      let mentions needle =
        List.exists
          (fun l ->
            String.length l >= String.length needle
            && String.sub l 0 (String.length needle) = needle)
          blocked
      in
      check "directory blocked on mack" true (mentions "mack");
      check "memory blocked on mwrite" true (mentions "mwrite")
  | Runner.Quiescent _ -> Alcotest.fail "expected the Figure 4 deadlock"

let test_stress_many_seeds () =
  (* every seed must drain under the debugged assignment *)
  List.iter
    (fun seed ->
      match Sim.Scenario.stress ~seed ~rounds:150 Checker.Vcassign.debugged with
      | Runner.Quiescent _, issued ->
          check (Printf.sprintf "seed %d issued work" seed) true (issued > 0)
      | Runner.Deadlock _, _ ->
          Alcotest.fail (Printf.sprintf "seed %d wedged" seed))
    [ 1; 7; 42; 1337; 99991 ]

(* ------------------------- byte-exact goldens ------------------------ *)

(* The CLI's `simulate` output (trace lines, then the result), the
   Figure 4 sequence chart, the stress outcomes and E14's capacity lines,
   against the texts in [golden/sim_*.txt]: every simulator schedule
   must keep its exact steps. *)
let simulate_text (result, trace) =
  String.concat "" (List.map (fun l -> l ^ "\n") trace)
  ^ Format.asprintf "%a@." Runner.pp_result result

let check_golden name text =
  Alcotest.(check string) name (Test_why.golden ("sim_" ^ name ^ ".txt")) text

let test_scenario_goldens () =
  let open Checker.Vcassign in
  let ((result, trace) as wedge) = Scenario.figure4 with_vc4 in
  check_golden "figure4_vc4" (simulate_text wedge);
  check_golden "figure4_debugged" (simulate_text (Scenario.figure4 debugged));
  check_golden "readex" (simulate_text (Scenario.readex_walkthrough debugged));
  check_golden "contention" (simulate_text (Scenario.contention debugged));
  check_golden "figure4_msc"
    (Msc.render_run trace ^ Format.asprintf "%a@." Runner.pp_result result)

let test_stress_golden () =
  check_golden "stress"
    (String.concat ""
       (List.map
          (fun seed ->
            let result, issued =
              Scenario.stress ~seed ~rounds:150 Checker.Vcassign.debugged
            in
            Format.asprintf "debugged seed %d: issued %d@.%a@." seed issued
              Runner.pp_result result)
          [ 1; 7; 42; 1337; 99991 ]))

(* --------------- the implementation-level feedback path ------------- *)

(* Channels too large to ever block: issues and deliveries are enabled
   exactly when the tables define them. *)
let unbounded =
  lazy
    (Runner.config ~nodes:2 ~addrs:2
       ~capacity:(Runner.uniform_capacity max_int) Checker.Vcassign.debugged)

let issue_all ops =
  List.fold_left
    (fun st (node, addr, op) ->
      snd
        (Option.get
           (Runner.try_issue (Lazy.force unbounded) st ~node ~addr
              ~op:(Mcheck.Mstate.intern op))))
    (Mcheck.Mstate.initial ~nodes:2 ~addrs:2)
    ops

let test_feedback_defers_and_replays () =
  let st = issue_all [ 0, 0, "load"; 1, 1, "load" ] in
  (* push every in-flight message through the gated directory without
     ever retiring updates: the second directory write must defer *)
  let t = Impl_runner.drive (Impl_runner.make ~upd_capacity:1 st) in
  check "one completion deferred through dfdback" true
    (t.Impl_runner.deferred >= 1);
  check "feedback queue holds the deferral" true (t.Impl_runner.feedback <> []);
  (* retire updates and replay: the system must converge *)
  let t = Impl_runner.settle t in
  check "feedback and update queue drained" true (Impl_runner.quiescent t);
  (* final architectural state must equal the unconstrained run *)
  let unconstrained =
    match Runner.run (Lazy.force unbounded) st with
    | Runner.Quiescent _, final -> final
    | Runner.Deadlock _, _ -> Alcotest.fail "unconstrained run wedged"
  in
  check "same final state as the unconstrained run" true
    (Mcheck.Mstate.key t.Impl_runner.base = Mcheck.Mstate.key unconstrained)

(* E14's table: two stores under update-queue capacities 1, 2 and 4,
   driven with the update engine stalled, then settled. *)
let test_e14_golden () =
  let initial = issue_all [ 0, 0, "store"; 1, 1, "store" ] in
  check_golden "e14"
    (String.concat ""
       (List.map
          (fun cap ->
            let t =
              Impl_runner.(settle (drive (make ~upd_capacity:cap initial)))
            in
            Printf.sprintf "update-queue capacity %d: %s -> %s\n" cap
              (Impl_runner.stats t)
              (if Impl_runner.quiescent t then "quiescent" else "STUCK"))
          [ 1; 2; 4 ]))

let test_feedback_run_to_completion () =
  let st = issue_all [ 0, 0, "store"; 1, 1, "store" ] in
  let t = Impl_runner.(settle (drive (make ~upd_capacity:1 st))) in
  check "quiescent" true (Impl_runner.quiescent t);
  check "stats render" true (String.length (Impl_runner.stats t) > 0)

let test_script_errors () =
  let config =
    Runner.config ~nodes:1 ~addrs:1 ~capacity:(Runner.uniform_capacity 4)
      Checker.Vcassign.debugged
  in
  let st = Mcheck.Mstate.initial ~nodes:1 ~addrs:1 in
  check "delivering from an empty queue fails" true
    (try
       ignore
         (Runner.run
            ~script:[ Runner.Deliver { src = 0; dst = Mcheck.Mstate.dir; cls = "reqq" } ]
            config st);
       false
     with Runner.Script_error _ -> true)

let suite =
  [
    Alcotest.test_case "channel mapping" `Quick test_channel_mapping;
    Alcotest.test_case "occupancy accounting" `Quick test_occupancy;
    Alcotest.test_case "figure 2 walkthrough" `Quick test_readex_walkthrough;
    Alcotest.test_case "contention serializes" `Quick test_contention_serializes;
    Alcotest.test_case "figure 4 deadlock replayed" `Quick test_figure4_deadlock;
    Alcotest.test_case "figure 4 fix drains" `Quick test_figure4_fix_drains;
    Alcotest.test_case "figure 4 blocked parties" `Quick test_figure4_blocked_parties;
    Alcotest.test_case "randomized stress drains" `Slow test_stress_many_seeds;
    Alcotest.test_case "feedback path defers and replays" `Quick test_feedback_defers_and_replays;
    Alcotest.test_case "gated run to completion" `Quick test_feedback_run_to_completion;
    Alcotest.test_case "script errors" `Quick test_script_errors;
    Alcotest.test_case "scenario goldens" `Quick test_scenario_goldens;
    Alcotest.test_case "stress golden" `Quick test_stress_golden;
    Alcotest.test_case "E14 golden" `Quick test_e14_golden;
    Alcotest.test_case "resolved V = the string lookup, exhaustively" `Quick
      test_resolver_matches_lookup;
  ]
