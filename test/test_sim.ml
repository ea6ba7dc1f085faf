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

(* --------------- the implementation-level feedback path ------------- *)

let drive_without_drains t =
  (* push every in-flight message through the gated directory without
     ever retiring updates: the second directory write must defer *)
  let rec go t =
    match Mcheck.Mstate.queue_heads t.Impl_runner.base with
    | [] -> t
    | ((src, dst, cls), msg) :: _ ->
        let base =
          match Mcheck.Mstate.dequeue t.Impl_runner.base (src, dst, cls) with
          | Some (_, b) -> b
          | None -> assert false
        in
        go (Impl_runner.deliver { t with Impl_runner.base } ~cls ~dst msg)
  in
  go t

let test_feedback_defers_and_replays () =
  let tables = Mcheck.Semantics.load_tables () in
  let st = Mcheck.Mstate.initial ~nodes:2 ~addrs:2 in
  let issue st node addr =
    Option.get (Mcheck.Semantics.issue_op tables st ~node ~addr ~op:(Mcheck.Mstate.intern "load"))
  in
  let st = issue (issue st 0 0) 1 1 in
  let t = drive_without_drains (Impl_runner.make ~upd_capacity:1 st) in
  check "one completion deferred through dfdback" true
    (t.Impl_runner.deferred >= 1);
  check "feedback queue holds the deferral" true (t.Impl_runner.feedback <> []);
  (* retire updates and replay: the system must converge *)
  let rec settle n t =
    if n > 100 then Alcotest.fail "feedback never drained"
    else if
      Mcheck.Mstate.quiescent t.Impl_runner.base
      && t.Impl_runner.feedback = []
    then t
    else
      settle (n + 1)
        (Impl_runner.replay_feedback (Impl_runner.drain_update t))
  in
  let t = settle 0 t in
  (* final architectural state must equal the unconstrained run *)
  let unconstrained =
    let rec go st =
      match Mcheck.Mstate.queue_heads st with
      | [] -> st
      | ((src, dst, cls), msg) :: _ -> (
          match Mcheck.Mstate.dequeue st (src, dst, cls) with
          | Some (_, st') -> (
              match Mcheck.Semantics.deliver tables st' ~cls ~dst msg with
              | Mcheck.Semantics.Next st'' -> go st''
              | Broken r -> Alcotest.fail r)
          | None -> assert false)
    in
    go (issue (issue (Mcheck.Mstate.initial ~nodes:2 ~addrs:2) 0 0) 1 1)
  in
  check "same final state as the unconstrained run" true
    (Mcheck.Mstate.key t.Impl_runner.base = Mcheck.Mstate.key unconstrained)

let test_feedback_run_to_completion () =
  let tables = Mcheck.Semantics.load_tables () in
  let st = Mcheck.Mstate.initial ~nodes:2 ~addrs:2 in
  let st =
    Option.get (Mcheck.Semantics.issue_op tables st ~node:0 ~addr:0 ~op:(Mcheck.Mstate.intern "store"))
  in
  let st =
    Option.get (Mcheck.Semantics.issue_op tables st ~node:1 ~addr:1 ~op:(Mcheck.Mstate.intern "store"))
  in
  let t = Impl_runner.run_to_completion (Impl_runner.make ~upd_capacity:1 st) in
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
  ]
