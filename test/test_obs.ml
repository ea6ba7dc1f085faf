(* The observability layer: span nesting and ordering, histogram bucket
   math, counter aggregation across registries, and a round trip of the
   Chrome trace-event JSON export through the bundled parser. *)

let check = Alcotest.(check bool)
let check_int = Alcotest.(check int)
let check_float = Alcotest.(check (float 1e-9))
let check_string = Alcotest.(check string)

(* Each test starts from a clean slate and leaves the layer disabled so
   the other suites (which run in the same process) are unaffected. *)
let with_obs f () =
  Obs.Report.reset ();
  Fun.protect
    ~finally:(fun () ->
      Obs.Config.disable ();
      Obs.Report.reset ())
    (fun () -> Obs.Config.with_enabled f)

(* ------------------------------- spans -------------------------------- *)

let spin () =
  (* burn a little real time so span durations are strictly positive *)
  let t0 = Obs.Clock.now_ns () in
  while Int64.sub (Obs.Clock.now_ns ()) t0 < 50_000L do
    ignore (Sys.opaque_identity (ref 0))
  done

let complete_events () =
  List.filter_map
    (function Obs.Trace.Complete _ as e -> Some e | _ -> None)
    (Obs.Trace.events ())

(* (ts_us, dur_us, depth) of the first complete span with this name *)
let find_span name =
  List.find_map
    (function
      | Obs.Trace.Complete { name = n; ts_us; dur_us; depth; _ } when n = name ->
          Some (ts_us, dur_us, depth)
      | _ -> None)
    (Obs.Trace.events ())
  |> Option.get

let test_span_nesting =
  with_obs @@ fun () ->
  let result =
    Obs.Trace.with_span "outer" (fun () ->
        Obs.Trace.with_span "inner" (fun () ->
            spin ();
            41)
        + 1)
  in
  check_int "thunk result flows through" 42 result;
  check_int "two complete events" 2 (List.length (complete_events ()));
  (* children complete first, so "inner" precedes "outer" *)
  (match complete_events () with
  | [ Obs.Trace.Complete { name = first; _ };
      Obs.Trace.Complete { name = second; _ } ] ->
      check_string "child recorded first" "inner" first;
      check_string "parent recorded second" "outer" second
  | _ -> Alcotest.fail "expected exactly two complete events");
  let o_ts, o_dur, o_depth = find_span "outer" in
  let i_ts, i_dur, i_depth = find_span "inner" in
  check_int "outer is a root span" 0 o_depth;
  check_int "inner nests one level down" 1 i_depth;
  check "inner starts within outer" true (i_ts >= o_ts);
  check "inner ends within outer" true (i_ts +. i_dur <= o_ts +. o_dur);
  check "durations are positive" true (i_dur > 0.)

let test_span_exception =
  with_obs @@ fun () ->
  (try
     Obs.Trace.with_span "failing" (fun () -> failwith "boom")
   with Failure _ -> ());
  check_int "span recorded despite the exception" 1
    (List.length (complete_events ()))

let test_disabled_is_noop () =
  Obs.Report.reset ();
  Obs.Config.disable ();
  let r = Obs.Trace.with_span "ignored" (fun () -> 7) in
  Obs.Trace.instant "ignored";
  Obs.Trace.counter "ignored" [ "x", 1. ];
  let c = Obs.Metrics.counter (Obs.Metrics.registry "off") "n" in
  Obs.Metrics.incr c;
  check_int "thunk still runs" 7 r;
  check_int "no events recorded" 0 (List.length (Obs.Trace.events ()));
  check_int "counter not incremented" 0 (Obs.Metrics.count c)

(* ----------------------------- histograms ----------------------------- *)

let test_histogram_buckets =
  with_obs @@ fun () ->
  let reg = Obs.Metrics.registry "test-hist" in
  let h = Obs.Metrics.histogram ~bounds:[| 1.; 2.; 4.; 8. |] reg "h" in
  List.iter (Obs.Metrics.observe h) [ 0.5; 1.; 1.5; 3.; 100. ];
  check_int "observations" 5 (Obs.Metrics.observations h);
  check_float "mean" ((0.5 +. 1. +. 1.5 +. 3. +. 100.) /. 5.)
    (Obs.Metrics.mean h);
  (* 0.5 and 1.0 land in <=1; 1.5 in <=2; 3.0 in <=4; 100 overflows *)
  check_float "median from buckets" 2. (Obs.Metrics.quantile h 0.5);
  check_float "p100 is the observed max" 100. (Obs.Metrics.quantile h 1.0);
  List.iter
    (fun (what, bounds) ->
      check ("rejects " ^ what ^ " bounds") true
        (try
           ignore (Obs.Metrics.histogram ~bounds reg ("bad-" ^ what));
           false
         with Invalid_argument _ -> true))
    [ ("non-increasing", [| 2.; 1. |]); ("empty", [||]) ]

let test_exponential_bounds () =
  Alcotest.(check (array (float 1e-9)))
    "powers of two" [| 1.; 2.; 4.; 8. |]
    (Obs.Metrics.exponential_bounds ~start:1. ~factor:2. 4)

(* ------------------------------ counters ------------------------------ *)

(* The rows of each --stats view, by key ("stats-spans",
   "stats-metrics"), over one snapshot of this process's collectors, as
   --stats prints them at exit.  One snapshot: the views' own queries
   record metrics while telemetry is on. *)
let stats_views () =
  let db = Systables.stats_db () in
  List.map
    (fun (c : Systables.canned) ->
      (c.key, Relalg.Table.rows (Relalg.Sql_exec.query db c.sql)))
    (Systables.canned_in [ Systables.Stats ])

let test_counter_aggregation =
  with_obs @@ fun () ->
  let a = Obs.Metrics.registry "agg-a" and b = Obs.Metrics.registry "agg-b" in
  let ca = Obs.Metrics.counter a "rows" and cb = Obs.Metrics.counter b "rows" in
  let other = Obs.Metrics.counter a "other" in
  Obs.Metrics.add ca 3;
  Obs.Metrics.add cb 4;
  Obs.Metrics.incr cb;
  Obs.Metrics.add other 100;
  check_int "per-registry counts" 3 (Obs.Metrics.count ca);
  check_int "aggregate sums across registries" 8 (Obs.Metrics.aggregate "rows");
  check_int "aggregation is by name" 100 (Obs.Metrics.aggregate "other");
  check "the --stats metrics view lists both registries" true
    (let registries = List.map (fun r -> r.(0)) (List.assoc "stats-metrics" (stats_views ())) in
     List.mem (Relalg.Value.Str "agg-a") registries
     && List.mem (Relalg.Value.Str "agg-b") registries);
  Obs.Metrics.reset ();
  check_int "reset zeroes handles in place" 0 (Obs.Metrics.count ca)

(* ------------------------- chrome trace export ------------------------ *)

let test_chrome_roundtrip =
  with_obs @@ fun () ->
  Obs.Trace.with_span ~cat:"t" "outer" (fun () ->
      Obs.Trace.with_span ~cat:"t"
        ~args:[ "k", Obs.Json.Str "v\"with\nescapes" ]
        "inner"
        (fun () -> spin ());
      Obs.Trace.counter "occupancy" [ "VC0", 2.; "VC1", 0. ];
      Obs.Trace.instant "marker");
  let json = Obs.Json.parse_exn (Obs.Trace.export ()) in
  let events =
    Option.get (Obs.Json.member "traceEvents" json)
    |> Obs.Json.to_list |> Option.get
  in
  check_int "all four events exported" 4 (List.length events);
  let field ev name = Option.get (Obs.Json.member name ev) in
  let num ev name = Option.get (Obs.Json.to_number (field ev name)) in
  let str ev name = Option.get (Obs.Json.to_str (field ev name)) in
  (* every event: non-negative ts; complete events: non-negative dur *)
  List.iter
    (fun ev ->
      check "ts >= 0" true (num ev "ts" >= 0.);
      if str ev "ph" = "X" then check "dur >= 0" true (num ev "dur" >= 0.))
    events;
  (* ts/dur containment survives the round trip *)
  let by_name n =
    List.find (fun ev -> str ev "name" = n) events
  in
  let outer = by_name "outer" and inner = by_name "inner" in
  check "inner.ts >= outer.ts" true (num inner "ts" >= num outer "ts");
  check "inner ends before outer ends" true
    (num inner "ts" +. num inner "dur"
    <= num outer "ts" +. num outer "dur");
  (* args survive escaping *)
  check_string "escaped arg round trips" "v\"with\nescapes"
    (Option.get
       (Obs.Json.to_str (Option.get (Obs.Json.member "k" (field inner "args")))));
  (* counter payload *)
  let occ = by_name "occupancy" in
  check_string "counter phase" "C" (str occ "ph");
  check_float "counter value" 2.
    (Option.get
       (Obs.Json.to_number (Option.get (Obs.Json.member "VC0" (field occ "args")))))

let test_json_parser () =
  let roundtrip v = Obs.Json.parse_exn (Obs.Json.to_string v) in
  let v =
    Obs.Json.Obj
      [
        "a", Obs.Json.List [ Obs.Json.Int 1; Obs.Json.Float 2.5; Obs.Json.Null ];
        "b", Obs.Json.Bool true;
        "c", Obs.Json.Str "tab\there";
      ]
  in
  check "structured round trip" true (roundtrip v = v);
  check "rejects trailing garbage" true
    (match Obs.Json.parse "{} junk" with Error _ -> true | Ok _ -> false);
  check "parses nested containers" true
    (match Obs.Json.parse "[{\"x\": [1, 2]}, -3.5e2]" with
    | Ok _ -> true
    | Error _ -> false);
  check "reads a \\u escape of four hex digits" true
    (Obs.Json.parse {|"\u0041\u004a"|} = Ok (Obs.Json.Str "AJ"));
  check "rejects a non-hex digit in a \\u escape" true
    (Result.is_error (Obs.Json.parse {|"\ugd80"|}));
  check "rejects an underscore in a \\u escape" true
    (Result.is_error (Obs.Json.parse {|"\u1_23"|}))

(* Whatever the text, [parse] answers Ok or Error: valid documents,
   the same mutated (a character replaced or inserted, a \u escape with
   four arbitrary characters inserted) or truncated, and short random
   strings over the JSON alphabet. *)
let json_chars = "{}[]\":,\\/ubfnrt0123456789abcdefABCDEFg_+-.eE \n"

let gen_json_text =
  let open QCheck2.Gen in
  let char = map (String.get json_chars) (int_bound (String.length json_chars - 1)) in
  let str = string_size ~gen:char (int_range 0 6) in
  let leaf =
    oneof
      [
        pure Obs.Json.Null;
        map (fun b -> Obs.Json.Bool b) bool;
        map (fun i -> Obs.Json.Int i) small_signed_int;
        map (fun f -> Obs.Json.Float f) float;
        map (fun s -> Obs.Json.Str s) str;
      ]
  in
  let tree =
    sized_size (int_range 0 8)
    @@ fix (fun self n ->
           if n = 0 then leaf
           else
             frequency
               [
                 (1, leaf);
                 (1, map (fun l -> Obs.Json.List l) (list_size (int_range 0 3) (self (n / 2))));
                 ( 2,
                   map
                     (fun kvs -> Obs.Json.Obj kvs)
                     (list_size (int_range 0 3) (pair str (self (n / 2)))) );
               ])
  in
  let valid = map Obs.Json.to_string tree in
  let mutated =
    let* s = valid in
    let* i = int_bound (String.length s) in
    let splice mid = String.sub s 0 i ^ mid ^ String.sub s i (String.length s - i) in
    oneof
      [
        pure (String.sub s 0 i);
        map (fun c -> splice (String.make 1 c)) char;
        map (fun esc -> splice ("\\u" ^ esc)) (string_size ~gen:char (pure 4));
        map
          (fun c -> String.mapi (fun j x -> if j = i then c else x) s)
          char;
      ]
  in
  oneof [ valid; mutated; string_size ~gen:char (int_range 0 12) ]

let prop_json_parse_total =
  QCheck2.Test.make ~count:5000 ~name:"Json.parse returns Ok or Error, never raises"
    ~print:(fun s -> Printf.sprintf "%S" s)
    gen_json_text
    (fun s -> match Obs.Json.parse s with Ok _ | Error _ -> true)

(* ------------------------------ report ------------------------------- *)

let test_report_render =
  with_obs @@ fun () ->
  Obs.Trace.with_span "stage" (fun () -> spin ());
  Obs.Metrics.add (Obs.Metrics.counter (Obs.Metrics.registry "layer") "n") 5;
  let views = stats_views () in
  let spans = List.assoc "stats-spans" views in
  let metrics = List.assoc "stats-metrics" views in
  check "the spans view lists the span" true
    (List.exists (fun r -> r.(0) = Relalg.Value.Str "stage") spans);
  check "the metrics view lists the registry" true
    (List.exists
       (fun r ->
         r.(0) = Relalg.Value.Str "layer"
         && r.(1) = Relalg.Value.Str "n"
         && r.(3) = Relalg.Value.Float 5.)
       metrics);
  let text =
    Systables.render_canned (Systables.stats_db ())
      (Systables.canned_in [ Systables.Stats ])
  in
  let contains sub =
    let n = String.length text and m = String.length sub in
    let rec go i = i + m <= n && (String.sub text i m = sub || go (i + 1)) in
    go 0
  in
  check "both views are printed under their titles" true
    (contains "[stats-spans]" && contains "[stats-metrics]" && contains "stage");
  Obs.Report.reset ();
  List.iter
    (fun (key, rows) -> check_int ("reset empties " ^ key) 0 (List.length rows))
    (stats_views ())

(* Subsystems cache their registry handle in a [lazy] (the solver's
   [obs_reg], Batch's, Explore's): a reset must zero the registries in
   place, not drop them, or the cached handle's counts stop reaching
   [Metrics.to_json]. *)
let test_reset_keeps_cached_handles () =
  let spec =
    Protocol.Ctrl_spec.to_solver_spec Protocol.directory.Protocol.spec
  in
  let pruned () =
    match Obs.Json.member "solver" (Obs.Metrics.to_json ()) with
    | Some reg -> (
        match Obs.Json.member "counters" reg with
        | Some (Obs.Json.Obj kvs) ->
            List.filter_map
              (fun (k, v) ->
                match v with
                | Obs.Json.Int n
                  when String.length k > 7 && String.sub k 0 7 = "pruned." ->
                    Some n
                | _ -> None)
              kvs
        | _ -> [])
    | None -> []
  in
  (* the first generation forces the solver's cached registry *)
  ignore (Relalg.Solver.generate spec);
  let before = pruned () in
  Obs.Report.reset ();
  check "reset zeroes the pruning counters" true
    (List.for_all (( = ) 0) (pruned ()));
  ignore (Relalg.Solver.generate spec);
  let after = pruned () in
  check "pruning counters listed after a reset" true (after <> []);
  Alcotest.(check (list int)) "same counts as before the reset" before after

(* ------------------------------ settings ------------------------------ *)

(* Each knob's declaration accepts exactly the spellings asura accepts
   and refuses the rest with the line the binaries print.  Only
   ASURA_PLAN_BUILD goes through the environment: Test_env restores an
   unset variable as "", which the other two refuse. *)
let test_settings_spellings () =
  let outcome parse v =
    match parse v with
    | x -> Ok x
    | exception Obs.Settings.Invalid line -> Error line
  in
  let cases name parse pp accepted refused_values expected =
    List.iter
      (fun (v, want) ->
        check (Printf.sprintf "%s=%S accepted" name v) true
          (outcome parse v = Ok want))
      accepted;
    List.iter
      (fun v ->
        check_string
          (Printf.sprintf "%s=%S refused" name v)
          (Printf.sprintf "%s %s (got %S)" name expected v)
          (match outcome parse v with Error l -> l | Ok x -> "accepted " ^ pp x))
      refused_values
  in
  let int_domains = "must be an integer >= 1" in
  cases "ASURA_DOMAINS" (Obs.Settings.parse_domains ~name:"ASURA_DOMAINS")
    string_of_int
    [ ("1", 1); ("4", 4); ("+3", 3); ("0x2", 2) ]
    [ "0"; "-2"; "x"; "abc"; ""; " 2"; "2 "; "99999999999999999999" ]
    int_domains;
  cases "--domains" (Obs.Settings.parse_domains ~name:"--domains")
    string_of_int [ ("2", 2) ] [ "0"; "x" ] int_domains;
  cases "ASURA_FLIGHTREC" Obs.Settings.parse_flightrec string_of_bool
    [ ("on", true); ("1", true); ("true", true); ("yes", true);
      ("off", false); ("0", false); ("false", false); ("no", false) ]
    [ "offf"; "2"; "enabled"; ""; "ON"; " on" ]
    "must be on or off (or 1/0, true/false, yes/no)";
  cases "ASURA_PLAN_BUILD" Obs.Settings.parse_plan_build
    (function None -> "unset" | Some b -> string_of_bool b)
    [ ("left", Some true); ("LEFT", Some true); ("l", Some true);
      ("right", Some false); ("RIGHT", Some false); ("r", Some false);
      ("", None) ]
    [ "lfet"; "both"; "1"; " left"; "Left" ]
    "must be left or right (or LEFT/RIGHT, l/r)";
  (* the environment path: read on every call, "" recorded as null *)
  let recorded v =
    Test_env.with_env "ASURA_PLAN_BUILD" v (fun () ->
        ( Obs.Settings.plan_build (),
          Obs.Json.member "ASURA_PLAN_BUILD" (Obs.Settings.to_json ()) ))
  in
  check "right" true (recorded "right" = (Some false, Some (Obs.Json.Str "right")));
  check "empty is unset" true (recorded "" = (None, Some Obs.Json.Null))

let suite =
  [
    ( "reset keeps cached registry handles live",
      `Quick,
      with_obs test_reset_keeps_cached_handles );
    "span nesting and ordering", `Quick, test_span_nesting;
    "span survives exceptions", `Quick, test_span_exception;
    "disabled layer is a no-op", `Quick, test_disabled_is_noop;
    "histogram bucket math", `Quick, test_histogram_buckets;
    "exponential bounds", `Quick, test_exponential_bounds;
    "counter aggregation across registries", `Quick, test_counter_aggregation;
    "chrome trace json round trip", `Quick, test_chrome_roundtrip;
    "json parser", `Quick, test_json_parser;
    Test_seed.to_alcotest prop_json_parse_total;
    "report rendering", `Quick, test_report_render;
    "settings: accepted and refused spellings", `Quick, test_settings_spellings;
  ]
