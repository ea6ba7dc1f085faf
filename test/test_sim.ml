(* The queue-accurate simulator and the Figure 4 replay. *)

open Sim

let check = Alcotest.(check bool)
let check_int = Alcotest.(check int)

let test_channel_mapping () =
  let v = Checker.Vcassign.with_vc4 in
  let ch cls src dst name = Channel.of_message ~v ~cls ~src ~dst name in
  check "request on VC0" true
    (ch "reqq" 0 Mcheck.Mstate.dir "readex" = Channel.Vc "VC0");
  check "snoop on VC1" true
    (ch "snp" Mcheck.Mstate.dir 1 "sinv" = Channel.Vc "VC1");
  check "snoop response on VC2" true
    (ch "respq" 1 Mcheck.Mstate.dir "idone" = Channel.Vc "VC2");
  check "grant on VC3" true
    (ch "resp" Mcheck.Mstate.dir 0 "datax" = Channel.Vc "VC3");
  check "memory request on VC4" true
    (ch "memq" Mcheck.Mstate.dir Mcheck.Mstate.mem "mread" = Channel.Vc "VC4");
  check "memory response on VC2" true
    (ch "respq" Mcheck.Mstate.mem Mcheck.Mstate.dir "mack" = Channel.Vc "VC2");
  check "completion acks are dedicated" true
    (ch "ackq" 0 Mcheck.Mstate.dir "compl" = Channel.Dedicated "ack");
  check "mread dedicated after the fix" true
    (Channel.of_message ~v:Checker.Vcassign.debugged ~cls:"memq"
       ~src:Mcheck.Mstate.dir ~dst:Mcheck.Mstate.mem "mread"
    = Channel.Dedicated "mread");
  check "dedicated never blocks" false
    (Channel.is_blocking (Channel.Dedicated "mread"))

let test_occupancy () =
  let v = Checker.Vcassign.with_vc4 in
  let st = Mcheck.Mstate.initial ~nodes:2 ~addrs:1 in
  let st =
    Mcheck.Mstate.enqueue st ~cls:Mcheck.Mstate.reqq
      { Mcheck.Mstate.m = Mcheck.Mstate.intern "readex"; src = 0; dst = Mcheck.Mstate.dir; addr = 0; fresh = true }
  in
  let st =
    Mcheck.Mstate.enqueue st ~cls:Mcheck.Mstate.reqq
      { Mcheck.Mstate.m = Mcheck.Mstate.intern "wb"; src = 1; dst = Mcheck.Mstate.dir; addr = 0; fresh = true }
  in
  Alcotest.(check (list (pair string int))) "two requests on VC0"
    [ "VC0", 2 ] (Channel.occupancy ~v st);
  Alcotest.(check (list string)) "over capacity 1" [ "VC0" ]
    (Channel.over_capacity ~v ~capacity:(fun _ -> 1) st);
  Alcotest.(check (list string)) "within capacity 2" []
    (Channel.over_capacity ~v ~capacity:(fun _ -> 2) st)

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
  { Runner.v = Checker.Vcassign.debugged;
    capacity = Runner.uniform_capacity max_int; nodes = 2; addrs = 2;
    io_addrs = [] }

let issue_all ops =
  List.fold_left
    (fun st (node, addr, op) ->
      snd
        (Option.get
           (Runner.try_issue unbounded st ~node ~addr
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
  check "feedback drained" true
    (Mcheck.Mstate.quiescent t.Impl_runner.base && t.Impl_runner.feedback = []);
  (* final architectural state must equal the unconstrained run *)
  let unconstrained =
    match Runner.run unbounded st with
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
              (if Mcheck.Mstate.quiescent t.Impl_runner.base then "quiescent"
               else "STUCK"))
          [ 1; 2; 4 ]))

let test_feedback_run_to_completion () =
  let st = issue_all [ 0, 0, "store"; 1, 1, "store" ] in
  let t = Impl_runner.(settle (drive (make ~upd_capacity:1 st))) in
  check "quiescent" true (Mcheck.Mstate.quiescent t.Impl_runner.base);
  check "stats render" true (String.length (Impl_runner.stats t) > 0)

let test_script_errors () =
  let config =
    { Runner.v = Checker.Vcassign.debugged;
      capacity = Runner.uniform_capacity 4; nodes = 1; addrs = 1;
      io_addrs = [] }
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
  ]
