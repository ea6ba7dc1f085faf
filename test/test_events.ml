(* Flight-recorder tests: ring wrap-around bookkeeping, JSON
   round-tripping, the order-free seq-vs-steal determinism contract,
   the disable escape hatch and the signal-drain arming. *)

let mcheck_tables = lazy (Mcheck.Semantics.load_tables ())
let domains_swept = [ 1; 2; 4 ]

(* Every test runs against a freshly-reset recorder (set_capacity zeroes
   all rings) and restores the default capacity and enabled state on the
   way out, so recorder state never leaks between suites. *)
let with_recorder ?(capacity = 4096) f =
  let was_on = Obs.Flightrec.on () in
  Obs.Flightrec.enable ();
  Obs.Flightrec.set_capacity capacity;
  Fun.protect
    ~finally:(fun () ->
      Obs.Flightrec.set_capacity 4096;
      if not was_on then Obs.Flightrec.disable ())
    f

(* ---------------------------- wrap-around ----------------------------- *)

let test_wraparound () =
  with_recorder ~capacity:16 (fun () ->
      for i = 1 to 50 do
        Obs.Flightrec.record ~tag:Obs.Flightrec.tag_expand ~a:i ~b:0 ~c:0
      done;
      let evs = Obs.Flightrec.drain () in
      Alcotest.(check int) "drain keeps exactly the capacity" 16
        (List.length evs);
      Alcotest.(check int) "total counts every write" 50
        (Obs.Flightrec.total ());
      Alcotest.(check int) "dropped = total - surviving" 34
        (Obs.Flightrec.dropped ());
      Alcotest.(check (list int))
        "the newest window survives, oldest-first"
        (List.init 16 (fun k -> 35 + k))
        (List.map (fun e -> e.Obs.Flightrec.a) evs);
      let rec monotone = function
        | a :: (b :: _ as rest) ->
            Int64.compare a.Obs.Flightrec.t_ns b.Obs.Flightrec.t_ns <= 0
            && monotone rest
        | _ -> true
      in
      Alcotest.(check bool) "reconstructed stamps are monotone" true
        (monotone evs))

(* [record_in] on [local]'s ring lands in the same stream as [record];
   while recording is off, [local] hands out a ring nothing drains. *)
let test_record_in_local_ring () =
  with_recorder (fun () ->
      let off = Obs.Flightrec.with_disabled Obs.Flightrec.local in
      Obs.Flightrec.record_in off ~tag:Obs.Flightrec.tag_expand ~a:1 ~b:0 ~c:0;
      let ring = Obs.Flightrec.local () in
      Obs.Flightrec.record ~tag:Obs.Flightrec.tag_expand ~a:2 ~b:0 ~c:0;
      Obs.Flightrec.record_in ring ~tag:Obs.Flightrec.tag_dedup ~a:3 ~b:0 ~c:0;
      Alcotest.(check (list int))
        "one stream, the inert ring's record dropped" [ 2; 3 ]
        (List.map (fun e -> e.Obs.Flightrec.a) (Obs.Flightrec.drain ())))

(* ---------------------------- record cost ----------------------------- *)

(* [record] and [record_in] allocate nothing, for every tag: 10k
   records of each through each add no minor words beyond what the two
   [Gc.minor_words] probes allocate themselves (measured back to
   back). *)
let test_record_allocates_nothing () =
  with_recorder (fun () ->
      let probe_cost =
        let w0 = Gc.minor_words () in
        let w1 = Gc.minor_words () in
        w1 -. w0
      in
      List.iter
        (fun tag ->
          let w0 = Gc.minor_words () in
          for i = 1 to 10_000 do
            Obs.Flightrec.record ~tag ~a:i ~b:(i + 1) ~c:(i + 2)
          done;
          let ring = Obs.Flightrec.local () in
          for i = 1 to 10_000 do
            Obs.Flightrec.record_in ring ~tag ~a:i ~b:(i + 1) ~c:(i + 2)
          done;
          let w1 = Gc.minor_words () in
          Alcotest.(check (float 0.))
            (Printf.sprintf "%s: minor words per 10k records"
               (Obs.Flightrec.tag_name tag))
            0.
            (w1 -. w0 -. probe_cost))
        Obs.Flightrec.
          [ tag_expand; tag_fire; tag_dedup; tag_steal; tag_compact;
            tag_solver_gen; tag_solver_extend; tag_violation; tag_deadlock;
            tag_stop ])

(* [fire] and [dedup] records reuse their [expand]'s stamp (no clock
   read, a zero delta); expands read the clock periodically, so over 40
   of them, with the clock moving in between, stamps advance. *)
let test_fire_dedup_share_expand_stamp () =
  with_recorder (fun () ->
      let open Obs.Flightrec in
      for depth = 1 to 40 do
        record ~tag:tag_expand ~a:depth ~b:0 ~c:0;
        for row = 1 to 4 do
          record ~tag:tag_fire ~a:0 ~b:row ~c:depth;
          record ~tag:tag_dedup ~a:depth ~b:(row land 1) ~c:0
        done;
        (* let the clock move between expansions *)
        let t0 = Obs.Clock.now_ns () in
        while Int64.equal (Obs.Clock.now_ns ()) t0 do () done
      done;
      let evs = drain () in
      Alcotest.(check int) "every record drained" 360 (List.length evs);
      let stamp = ref 0L in
      List.iter
        (fun e ->
          if e.tag = tag_expand then begin
            Alcotest.(check bool) "expand stamps never go back" true
              (Int64.compare !stamp e.t_ns <= 0);
            stamp := e.t_ns
          end
          else
            Alcotest.(check int64)
              (Printf.sprintf "%s at depth %d stamped as its expand"
                 (tag_name e.tag) (if e.tag = tag_fire then e.c else e.a))
              !stamp e.t_ns)
        evs;
      let expand_stamps =
        List.sort_uniq Int64.compare
          (List.filter_map
             (fun e -> if e.tag = tag_expand then Some e.t_ns else None)
             evs)
      in
      Alcotest.(check bool) "expands read the clock" true
        (List.length expand_stamps >= 2))

(* ------------------------------- JSON --------------------------------- *)

let test_json_round_trip () =
  with_recorder (fun () ->
      Obs.Flightrec.record ~tag:Obs.Flightrec.tag_expand ~a:3 ~b:7 ~c:0;
      Obs.Flightrec.record ~tag:Obs.Flightrec.tag_dedup ~a:3 ~b:1 ~c:0;
      Obs.Flightrec.record ~tag:Obs.Flightrec.tag_stop
        ~a:Obs.Flightrec.stop_budget ~b:42 ~c:0;
      let docs = Obs.Flightrec.of_json (Obs.Flightrec.to_json ()) in
      Alcotest.(check (list string))
        "tags survive the manifest round trip"
        [ "expand"; "dedup"; "stop" ]
        (List.map (fun d -> d.Obs.Flightrec.d_tag) docs);
      Alcotest.(check (list int)) "payloads survive" [ 7; 1; 42 ]
        (List.map (fun d -> d.Obs.Flightrec.d_b) docs);
      (* re-serializing parsed events is a fixpoint: `events dump --runs`
         emits the same shape as a live dump *)
      let again =
        Obs.Flightrec.of_json (Obs.Flightrec.docs_to_json ~dropped:0 docs)
      in
      Alcotest.(check bool) "docs_to_json round-trips" true (again = docs))

(* --------------------- order-free determinism ------------------------- *)

(* Only the order-free projections of the stream are part of the
   determinism contract: per-tag counts for the tags whose cause is
   deterministic (every visited state of a complete search is expanded
   exactly once in any schedule) and per-rule firing counts.  Steal and
   compact events are scheduling-dependent and excluded. *)
let observe_events () =
  let evs = Obs.Flightrec.drain () in
  let deterministic =
    Obs.Flightrec.[ tag_expand; tag_fire; tag_dedup ]
  in
  ( List.filter
      (fun (t, _) -> List.mem t deterministic)
      (Obs.Flightrec.counts_by_tag evs),
    Obs.Flightrec.fire_counts evs )

let test_order_free_determinism () =
  let cfg =
    { Mcheck.Semantics.nodes = 2; addrs = 1; ops = [ "load"; "store" ];
      capacity = 1; io_addrs = []; lossy = false }
  in
  ignore (Lazy.force mcheck_tables);
  with_recorder ~capacity:(1 lsl 16) (fun () ->
      let tables = Lazy.force mcheck_tables in
      let reference () =
        Mcheck.Explore.run_reference ~max_states:50_000 ~tables cfg
      in
      let packed () = Mcheck.Explore.run ~max_states:50_000 ~tables cfg in
      let go search d =
        Par.Pool.with_domains d (fun () ->
            Obs.Flightrec.reset ();
            let r = search () in
            Alcotest.(check bool) "search is complete" true
              r.Mcheck.Explore.complete;
            observe_events ())
      in
      let expected = go reference 1 in
      let counts, fires = expected in
      Alcotest.(check bool) "reference recorded expansions and firings" true
        (counts <> [] && fires <> []);
      List.iter
        (fun d ->
          Alcotest.(check bool)
            (Printf.sprintf
               "steal event projections match the reference at %d domains" d)
            true
            (go packed d = expected))
        domains_swept)

(* --------------------------- escape hatch ----------------------------- *)

let test_with_disabled () =
  with_recorder (fun () ->
      let before = Obs.Flightrec.total () in
      Obs.Flightrec.with_disabled (fun () ->
          Obs.Flightrec.record ~tag:Obs.Flightrec.tag_expand ~a:0 ~b:0 ~c:0);
      Alcotest.(check int) "no writes while disabled" before
        (Obs.Flightrec.total ());
      Alcotest.(check bool) "recording restored" true (Obs.Flightrec.on ());
      (match Obs.Flightrec.with_disabled (fun () -> raise Exit) with
      | exception Exit -> ()
      | () -> Alcotest.fail "expected Exit to escape with_disabled");
      Alcotest.(check bool) "restored after an exception" true
        (Obs.Flightrec.on ()))

(* ------------------------------ signals ------------------------------- *)

(* Actually delivering SIGINT would exit the test runner; what the test
   can pin is that arming installs real handlers on both signals (so an
   interrupt becomes an orderly exit whose at_exit manifest write drains
   the rings) and that re-arming is idempotent. *)
let test_signal_arming () =
  Obs.Flightrec.arm_signal_drain ();
  let check_installed name signo =
    let prev = Sys.signal signo Sys.Signal_default in
    (match prev with
    | Sys.Signal_handle _ -> ()
    | Sys.Signal_default | Sys.Signal_ignore ->
        Alcotest.failf "%s has no drain handler installed" name);
    Sys.set_signal signo prev
  in
  check_installed "SIGINT" Sys.sigint;
  check_installed "SIGTERM" Sys.sigterm;
  Obs.Flightrec.arm_signal_drain ()

(* --------------------------- sys.events ------------------------------- *)

let test_sys_events_table () =
  with_recorder (fun () ->
      Obs.Flightrec.record ~tag:Obs.Flightrec.tag_stop
        ~a:Obs.Flightrec.stop_complete ~b:5 ~c:0;
      let t =
        Systables.events_of (Obs.Flightrec.of_json (Obs.Flightrec.to_json ()))
      in
      Alcotest.(check int) "one row per surviving event" 1
        (Relalg.Table.cardinality t);
      let db = Relalg.Database.replace_system Relalg.Database.empty t in
      let out =
        Relalg.Sql_exec.query db
          "SELECT detail FROM sys.events WHERE tag = 'stop'"
      in
      match Relalg.Table.rows out with
      | [ [| Relalg.Value.Str s |] ] ->
          Alcotest.(check string) "stop detail names the reason" "complete" s
      | _ -> Alcotest.fail "expected exactly one decoded stop row")

let suite =
  [
    Alcotest.test_case "ring wrap-around keeps the newest window" `Quick
      test_wraparound;
    Alcotest.test_case "record_in shares record's ring" `Quick
      test_record_in_local_ring;
    Alcotest.test_case "events round-trip through manifest JSON" `Quick
      test_json_round_trip;
    Alcotest.test_case "order-free projections match seq at 1/2/4 domains"
      `Slow test_order_free_determinism;
    Alcotest.test_case "with_disabled suppresses and restores" `Quick
      test_with_disabled;
    Alcotest.test_case "signal drain handlers armed idempotently" `Quick
      test_signal_arming;
    Alcotest.test_case "record allocates nothing, for every tag" `Quick
      test_record_allocates_nothing;
    Alcotest.test_case "fire and dedup reuse their expand's stamp" `Quick
      test_fire_dedup_share_expand_stamp;
    Alcotest.test_case "sys.events decodes stop rows" `Quick
      test_sys_events_table;
  ]
