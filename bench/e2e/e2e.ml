(* End-to-end benchmark.  See README.md in this directory for the
   metrics, the workloads and the commands.

   Every measurement comes from a fresh child process (this executable
   run as [child ...]), one child at a time.  A child sets up, runs one
   untimed warm-up request, runs a closed loop with one client for its
   slice, timing the host-speed probe (probe.ml) after each request, and
   writes its raw samples to the parent on stdout; the parent does all
   the statistics, and reports every time at the probe's reference
   speed. *)

let domains = 2
let default_slice = 2.0
let out_dir = "bench/e2e/out"

(* Seconds a child may take beyond its slice before it is killed. *)
let child_grace = 60.

let die fmt = Printf.ksprintf (fun s -> prerr_endline ("e2e: " ^ s); exit 2) fmt
let now_ns () = Int64.to_int (Obs.Clock.now_ns ())

(* ------------------------------ statistics --------------------------- *)

(* Linear interpolation between closest ranks; [p] in 0..100. *)
let percentile p xs =
  match List.sort compare xs with
  | [] -> 0.
  | sorted ->
      let a = Array.of_list sorted in
      let r = p /. 100. *. float_of_int (Array.length a - 1) in
      let i = int_of_float r in
      if i + 1 >= Array.length a then a.(i)
      else a.(i) +. ((r -. float_of_int i) *. (a.(i + 1) -. a.(i)))

let median = percentile 50.
let sum = List.fold_left ( +. ) 0.

(* ------------------------------- child -------------------------------- *)

let vm_hwm_kb () =
  In_channel.with_open_text "/proc/self/status" (fun ic ->
      let rec go () =
        match In_channel.input_line ic with
        | None -> 0
        | Some l -> (
            match Scanf.sscanf_opt l "VmHWM: %d kB" Fun.id with
            | Some kb -> kb
            | None -> go ())
      in
      go ())

let floats xs = Obs.Json.List (List.rev_map (fun x -> Obs.Json.Float x) xs)

let table_json tbl ~req ~scale =
  Obs.Json.Obj
    (Hashtbl.fold
       (fun (r, name) v acc -> if r = req then (name, Obs.Json.Float (v *. scale)) :: acc else acc)
       tbl [])

type kind = Real | Traced | Replica | Recoff

(* The traced loop cycles through these request kinds: the real request
   untraced and traced (one request span: the tracing overhead), the
   replica (one span per layer call), and on the model-checking
   workloads the real request with the flight recorder off. *)
let kinds (w : Workload.t) =
  Array.of_list ([ Real; Traced; Replica ] @ if w.mcheck then [ Recoff ] else [])

let child ~(w : Workload.t) ~seed ~launch ~slice ~traced =
  Par.Pool.set_domains domains;
  let rng = Random.State.make [| seed; launch |] in
  let attempted = ref 0 and failed = ref 0 and first_error = ref None in
  let run f =
    incr attempted;
    let fail e =
      incr failed;
      if !first_error = None then first_error := Some e
    in
    match f () with
    | Ok () -> ()
    | Error e -> fail e
    | exception e -> fail (Printexc.to_string e)
  in
  Span.on := traced;
  let inst = Span.request ~id:0 "setup" (fun () -> w.setup ~traced rng) in
  Span.on := false;
  run inst.request;
  if traced then run inst.replica;
  print_endline "ready";
  (* per kind: request latencies in seconds, newest first *)
  let lat = Hashtbl.create 4 in
  let time kind f =
    let t0 = now_ns () in
    f ();
    let dt = float_of_int (now_ns () - t0) /. 1e9 in
    Hashtbl.replace lat kind (dt :: Option.value (Hashtbl.find_opt lat kind) ~default:[])
  in
  let kinds = if traced then kinds w else [| Real |] in
  let replicas = ref [] and reals = ref [] in
  (* the host-speed probe right after each real request, newest first *)
  let probe_s = ref [] in
  let deadline = now_ns () + int_of_float (slice *. 1e9) in
  let i = ref 0 in
  while !i = 0 || now_ns () < deadline do
    let id = !i + 1 in
    (match kinds.(!i mod Array.length kinds) with
    | Real ->
        time Real (fun () -> run inst.request);
        probe_s := Probe.time () :: !probe_s
    | Recoff -> time Recoff (fun () -> Obs.Flightrec.with_disabled (fun () -> run inst.request))
    | Traced ->
        Span.on := true;
        time Traced (fun () -> Span.request ~id "request" (fun () -> run inst.request));
        Span.on := false;
        reals := id :: !reals
    | Replica ->
        Span.on := true;
        Span.request ~id "replica" (fun () -> run inst.replica);
        Span.on := false;
        replicas := id :: !replicas);
    incr i
  done;
  (* steals over one whole real request: the rings must hold all of it *)
  let steals =
    if traced && w.mcheck then begin
      Obs.Flightrec.set_capacity (1 lsl 18);
      Obs.Flightrec.reset ();
      run inst.request;
      let events = Obs.Flightrec.drain () in
      if Obs.Flightrec.dropped () > 0 then run (fun () -> Error "flight recorder dropped steals");
      Option.value ~default:0
        (List.assoc_opt Obs.Flightrec.tag_steal (Obs.Flightrec.counts_by_tag events))
    end
    else 0
  in
  let lat_of k = floats (Option.value (Hashtbl.find_opt lat k) ~default:[]) in
  let self = Span.self_times () in
  let per_request ids =
    Obs.Json.List
      (List.rev_map
         (fun req ->
           Obs.Json.Obj
             [ "times_ms", table_json self ~req ~scale:1e-6; "counts", table_json Span.counts ~req ~scale:1. ])
         ids)
  in
  let traced_json =
    if not traced then []
    else
      [
        ( "traced",
          Obs.Json.Obj
            [
              "traced_s", lat_of Traced;
              "recoff_s", lat_of Recoff;
              "setup_ms", table_json self ~req:0 ~scale:1e-6;
              "replicas", per_request !replicas;
              "requests", per_request !reals;
              "steals", Obs.Json.Int steals;
              "spans", Obs.Json.List (List.rev_map (Span.chrome_event ~pid:launch) !Span.spans);
            ] );
      ]
  in
  print_endline
    (Obs.Json.to_string
       (Obs.Json.Obj
          ([
             "launch", Obs.Json.Int launch;
             "attempted", Obs.Json.Int !attempted;
             "failed", Obs.Json.Int !failed;
             "error", (match !first_error with Some e -> Obs.Json.Str e | None -> Obs.Json.Null);
             "hwm_kb", Obs.Json.Int (vm_hwm_kb ());
             "lat_s", lat_of Real;
             "probe_s", floats !probe_s;
           ]
          @ traced_json)))

(* ------------------------------- parent ------------------------------- *)

type launch = {
  workload : Workload.t;
  setup_s : float;  (** child start to ready: set-up plus the warm-up request *)
  doc : Obs.Json.t;  (** the child's report *)
}

let member k j =
  match Obs.Json.member k j with Some v -> v | None -> failwith ("child report lacks " ^ k)

let num k j =
  match Obs.Json.to_number (member k j) with Some f -> f | None -> failwith ("bad " ^ k)

let num_list k j =
  List.map
    (fun v -> Option.get (Obs.Json.to_number v))
    (Option.value (Obs.Json.to_list (member k j)) ~default:[])

(* Read everything the child writes, noting when its first line
   ("ready") arrives; kill it if it overruns its deadline. *)
let read_child ~pid ~deadline fd =
  let buf = Buffer.create 65536 and chunk = Bytes.create 65536 in
  let ready_at = ref None in
  let rec go () =
    let left = deadline -. Unix.gettimeofday () in
    if left <= 0. then begin
      Unix.kill pid Sys.sigkill;
      Error "timed out"
    end
    else
      match Unix.select [ fd ] [] [] left with
      | exception Unix.Unix_error (Unix.EINTR, _, _) -> go ()
      | [], _, _ -> go ()
      | _ ->
          let n = Unix.read fd chunk 0 (Bytes.length chunk) in
          if n = 0 then Ok ()
          else begin
            if !ready_at = None && Bytes.contains (Bytes.sub chunk 0 n) '\n' then
              ready_at := Some (now_ns ());
            Buffer.add_subbytes buf chunk 0 n;
            go ()
          end
  in
  let r = go () in
  r, !ready_at, Buffer.contents buf

let spawn ~seed ~launch ~slice ~traced (w : Workload.t) =
  let exe = Sys.executable_name in
  let argv =
    [| exe; "child"; w.name; string_of_int seed; string_of_int launch;
       Printf.sprintf "%.17g" slice; (if traced then "1" else "0") |]
  in
  let rd, wr = Unix.pipe ~cloexec:true () in
  let t0 = now_ns () in
  let pid = Unix.create_process exe argv Unix.stdin wr Unix.stderr in
  Unix.close wr;
  let read, ready_at, out =
    Fun.protect ~finally:(fun () -> Unix.close rd) (fun () ->
        read_child ~pid ~deadline:(Unix.gettimeofday () +. slice +. child_grace) rd)
  in
  let _, status = Unix.waitpid [] pid in
  let fail why = Error (Printf.sprintf "%s child %d: %s" w.name launch why) in
  match read, status, ready_at, String.split_on_char '\n' (String.trim out) with
  | Error e, _, _, _ -> fail e
  | Ok (), Unix.WEXITED 0, Some ready, [ "ready"; report ] -> (
      match Obs.Json.parse report with
      | Ok doc -> Ok { workload = w; setup_s = float_of_int (ready - t0) /. 1e9; doc }
      | Error e -> fail ("unreadable report: " ^ e))
  | Ok (), Unix.WEXITED n, _, _ -> fail (Printf.sprintf "exited %d" n)
  | Ok (), (Unix.WSIGNALED n | Unix.WSTOPPED n), _, _ -> fail (Printf.sprintf "killed by signal %d" n)

(* [rounds] rounds; each runs every workload once, in an order rotated
   by round and seed, so the host's slow and fast phases hit every
   workload alike. *)
let run_rounds ?(rotate = 0) ~seed ~rounds ~slice ~traced workloads =
  let n = List.length workloads in
  let order round =
    List.init n (fun i -> List.nth workloads ((i + rotate + round) mod n))
  in
  List.concat_map
    (fun round ->
      List.mapi
        (fun i w ->
          match spawn ~seed ~launch:((round * n) + i) ~slice ~traced w with
          | Ok l -> l
          | Error e -> die "%s" e)
        (order round))
    (List.init rounds Fun.id)

let launches_of (w : Workload.t) launches = List.filter (fun l -> l.workload == w) launches
let count_sum k ls = List.fold_left (fun a l -> a + int_of_float (num k l.doc)) 0 ls

(* ---- end-to-end metrics ---- *)

type e2e = {
  w : Workload.t;
  n : int;  (** timed requests *)
  attempted : int;
  failed : int;
  metrics : (string * string * float) list;  (** name, unit, value *)
}

(* A launch's request latencies at the probe's reference speed: each one
   scaled by the probe timed right after it. *)
let corrected l =
  List.map2
    (fun lat probe -> lat *. Probe.reference_s /. probe)
    (num_list "lat_s" l.doc) (num_list "probe_s" l.doc)

(* how much slower than the reference speed the host ran in a launch *)
let slowdown l = median (num_list "probe_s" l.doc) /. Probe.reference_s

let e2e_metrics (w : Workload.t) ls =
  let all_lat = List.concat_map corrected ls in
  let attempted = count_sum "attempted" ls and failed = count_sum "failed" ls in
  {
    w;
    n = List.length all_lat;
    attempted;
    failed;
    metrics =
      [
        ( "throughput_rps", "req/s",
          median (List.map (fun l -> let c = corrected l in float_of_int (List.length c) /. sum c) ls) );
        "latency_p50_ms", "ms", 1e3 *. median all_lat;
        "latency_tail_ms", "ms", 1e3 *. percentile w.tail_pct all_lat;
        "setup_s", "s", median (List.map (fun l -> l.setup_s /. slowdown l) ls);
        "peak_rss_mb", "MB", median (List.map (fun l -> num "hwm_kb" l.doc /. 1024.) ls);
        "error_rate", "fraction", float_of_int failed /. float_of_int (max 1 attempted);
        (* not gated: the host's speed, and two timings before the correction *)
        "host_slowdown", "ratio", median (List.map slowdown ls);
        "raw_latency_p50_ms", "ms", 1e3 *. median (List.concat_map (fun l -> num_list "lat_s" l.doc) ls);
        "raw_setup_s", "s", median (List.map (fun l -> l.setup_s) ls);
      ];
  }

(* ---- per-layer metrics ---- *)

let traced l = member "traced" l.doc

(* median over the requests of one kind ("replicas" or "requests") of
   one table ("times_ms" or "counts") entry; 0 where a request lacks it *)
let request_median ls ~kind ~table name =
  let values =
    List.concat_map
      (fun l ->
        List.map
          (fun r ->
            match Obs.Json.member name (member table r) with
            | Some v -> Option.get (Obs.Json.to_number v)
            | None -> 0.)
          (Option.get (Obs.Json.to_list (member kind (traced l)))))
      ls
  in
  if values = [] then 0. else median values

let replica_total_ms l =
  List.map
    (fun r ->
      match member "times_ms" r with
      | Obs.Json.Obj kv -> sum (List.map (fun (_, v) -> Option.get (Obs.Json.to_number v)) kv)
      | _ -> 0.)
    (Option.get (Obs.Json.to_list (member "replicas" (traced l))))

let per_layer_metrics launches =
  let by_w = List.map (fun w -> w, launches_of w launches) Workload.all_workloads in
  let by_w = List.filter (fun (_, ls) -> ls <> []) by_w in
  let mcheck = List.filter (fun ((w : Workload.t), _) -> w.mcheck) by_w in
  (* summed over the workloads whose requests produce it *)
  let across ?(among = by_w) ~kind ~table name =
    sum (List.map (fun (_, ls) -> request_median ls ~kind ~table name) among)
  in
  let time name = across ~kind:"replicas" ~table:"times_ms" name in
  let count name = across ~kind:"replicas" ~table:"counts" name in
  let real name = across ~among:mcheck ~kind:"requests" ~table:"counts" name in
  let setup name =
    median
      (List.filter_map
         (fun l ->
           Option.map (fun v -> Option.get (Obs.Json.to_number v))
             (Obs.Json.member name (member "setup_ms" (traced l))))
         launches)
  in
  let p50 k ls = median (List.concat_map (fun l -> num_list k (traced l)) ls) in
  let real_p50 ls = median (List.concat_map (fun l -> num_list "lat_s" l.doc) ls) in
  let replica_p50 ls = median (List.concat_map replica_total_ms ls) /. 1e3 in
  let ratio a b = if b = 0. then 0. else a /. b in
  let mcheck_real = sum (List.map (fun (_, ls) -> real_p50 ls) mcheck) in
  List.iter
    (fun ((w : Workload.t), ls) ->
      Printf.printf "%-13s real p50 %.3f ms, traced %.3f ms, replica layers %.3f ms\n" w.name
        (1e3 *. real_p50 ls) (1e3 *. p50 "traced_s" ls) (1e3 *. replica_p50 ls))
    by_w;
  [
    ( "trace.overhead", "ratio",
      List.fold_left max 0. (List.map (fun (_, ls) -> p50 "traced_s" ls /. real_p50 ls) by_w) );
    ( "trace.attributed_frac", "fraction",
      List.fold_left min infinity
        (List.map (fun (_, ls) -> replica_p50 ls /. real_p50 ls) by_w) );
    "setup.protocol_tables_ms", "ms", setup "setup.protocol_tables";
    "setup.mcheck_tables_ms", "ms", setup "setup.mcheck_tables";
    "sql.parse_us", "us", 1e3 *. time "sql.parse";
    "sql.plan_us", "us", 1e3 *. time "sql.plan";
    "sql.execute_us", "us", 1e3 *. time "sql.execute";
    "sql.write_us", "us", 1e3 *. time "sql.write";
    "sql.queries", "count", count "sql.queries";
    "sql.batches", "count", count "sql.batches";
    "sql.rows_scanned", "count", count "sql.rows_scanned";
    "invariant.native_us", "us", 1e3 *. time "invariant.native";
    "dependency.protocol_ms", "ms", time "dependency.protocol";
    "dependency.entries", "count", count "dependency.entries";
    "vcg.build_ms", "ms", time "vcg.build";
    "vcg.edges", "count", count "vcg.edges";
    "graph.cycles_ms", "ms", time "graph.cycles";
    "graph.cycles", "count", count "graph.cycles";
    "mapping.extend_ms", "ms", time "mapping.extend";
    "mapping.rows_written", "count", count "mapping.rows_written";
    "sim.figure4_us", "us", 1e3 *. time "sim.figure4";
    "sim.steps", "count", count "sim.steps";
    "solver.D_ms", "ms", time "solver.D";
    "solver.rest_ms", "ms", time "solver.rest";
    "solver.candidates", "count", count "solver.candidates";
    "solver.evaluations", "count", count "solver.evaluations";
    "solver.kept_frac", "fraction", ratio (count "solver.rows") (count "solver.candidates");
    "mcheck.explored", "count", real "mcheck.explored";
    "mcheck.transitions", "count", real "mcheck.transitions";
    "mcheck.dedup_rate", "fraction", ratio (real "mcheck.dedup_hits") (real "mcheck.transitions");
    "mcheck.max_frontier", "count", real "mcheck.max_frontier";
    "mcheck.cex_ms", "ms", real "mcheck.cex_ns" /. 1e6;
    "mcheck.successors_us", "us", 1e3 *. time "mcheck.successors";
    "mcheck.state_checks_us", "us", 1e3 *. time "mcheck.state_checks";
    "mcheck.canonical_us", "us", 1e3 *. time "mcheck.canonical";
    "mcheck.dedup_us", "us", 1e3 *. time "mcheck.dedup";
    ( "par.efficiency", "ratio",
      ratio (sum (List.map (fun (_, ls) -> replica_p50 ls) mcheck)) (2. *. mcheck_real) );
    ( "par.steals", "count",
      sum
        (List.map
           (fun (_, ls) -> median (List.map (fun l -> num "steals" (traced l)) ls))
           mcheck) );
    ( "obs.flightrec_share", "fraction",
      ratio (mcheck_real -. sum (List.map (fun (_, ls) -> p50 "recoff_s" ls) mcheck)) mcheck_real );
  ]

(* ------------------------------ reporting ----------------------------- *)

let git_rev () =
  try
    let ic = Unix.open_process_in "git rev-parse --short HEAD 2>/dev/null" in
    let rev = try String.trim (input_line ic) with End_of_file -> "" in
    match Unix.close_process_in ic with
    | Unix.WEXITED 0 when rev <> "" -> rev
    | _ -> "unknown"
  with Unix.Unix_error _ | Sys_error _ -> "unknown"

let meta ~seed ~rounds ~slice ~traced =
  let tm = Unix.gmtime (Unix.gettimeofday ()) in
  Obs.Json.
    [
      "schema", Str "asura-e2e/1";
      "date", Str (Printf.sprintf "%04d-%02d-%02d" (tm.tm_year + 1900) (tm.tm_mon + 1) tm.tm_mday);
      "git_rev", Str (git_rev ());
      "seed", Int seed;
      "nproc", Int (Domain.recommended_domain_count ());
      "domains", Int domains;
      "ocaml", Str Sys.ocaml_version;
      "rounds", Int rounds;
      "slice_s", Float slice;
      "traced", Bool traced;
    ]

let metrics_json kv = Obs.Json.Obj (List.map (fun (k, _, v) -> k, Obs.Json.Float v) kv)

let e2e_json r =
  Obs.Json.Obj
    [
      "name", Obs.Json.Str r.w.name;
      "n", Obs.Json.Int r.n;
      "tail_pct", Obs.Json.Float r.w.tail_pct;
      "metrics", metrics_json r.metrics;
    ]

let write_file path json =
  let rec mkdir_p d =
    if d <> "." && d <> "/" && not (Sys.file_exists d) then begin
      mkdir_p (Filename.dirname d);
      Sys.mkdir d 0o755
    end
  in
  mkdir_p (Filename.dirname path);
  Out_channel.with_open_text path (fun oc ->
      output_string oc (Obs.Json.to_string json);
      output_char oc '\n');
  Printf.printf "wrote %s\n" path

let print_e2e r =
  Printf.printf "%-13s n=%-5d" r.w.name r.n;
  List.iter
    (fun (k, _, v) ->
      let k = if k = "latency_tail_ms" then Printf.sprintf "p%.0f_ms" r.w.tail_pct else k in
      Printf.printf " %s=%.4g" k v)
    r.metrics;
  print_newline ()

let chrome_trace launches =
  Obs.Json.Obj
    [
      ( "traceEvents",
        Obs.Json.List
          (List.concat
             (List.map
                (fun l ->
                  Obs.Json.Obj
                    [ "name", Obs.Json.Str "process_name"; "ph", Obs.Json.Str "M"; "pid", member "launch" l.doc;
                      "args", Obs.Json.Obj [ "name", Obs.Json.Str l.workload.name ] ]
                  :: Option.get (Obs.Json.to_list (member "spans" (traced l))))
                launches)) );
    ]

(* The last line of standard output: the machine-readable result. *)
let print_result ~correct ~attempted ~failed metrics =
  print_endline
    (Obs.Json.to_string
       (Obs.Json.Obj
          [
            "correct", Obs.Json.Bool correct;
            "attempted", Obs.Json.Int attempted;
            "failed", Obs.Json.Int failed;
            ( "metrics",
              Obs.Json.Obj
                (List.map
                   (fun (k, u, v) -> k, Obs.Json.Obj [ "value", Obs.Json.Float v; "unit", Obs.Json.Str u ])
                   metrics) );
          ]))

let first_errors launches =
  List.iter
    (fun l ->
      match Obs.Json.member "error" l.doc with
      | Some (Obs.Json.Str e) -> Printf.eprintf "e2e: %s: %s\n" l.workload.name e
      | _ -> ())
    launches

(* ------------------------------- modes -------------------------------- *)

let require_default_config () =
  if Domain.recommended_domain_count () < domains then
    die "needs at least %d cores (nproc is %d)" domains (Domain.recommended_domain_count ());
  Array.iter
    (fun kv ->
      if String.length kv > 6 && String.sub kv 0 6 = "ASURA_" then
        die "unset %s: numbers must come from the default configuration" kv)
    (Unix.environment ())

let workload_named name =
  match Workload.find name with
  | Some w -> w
  | None ->
      die "unknown workload %S (one of: %s)" name
        (String.concat ", " (List.map (fun (w : Workload.t) -> w.name) Workload.all_workloads))

(* Rotate the workload list so [w] comes first. *)
let starting_at (w : Workload.t) =
  let rec go acc = function
    | [] -> List.rev acc
    | x :: rest when x == w -> (x :: rest) @ List.rev acc
    | x :: rest -> go (x :: acc) rest
  in
  go [] Workload.all_workloads

(* A [--workload] run: one workload for [seconds] (untraced), or one
   traced round over every workload starting at [w] (the per-layer
   metrics cover layers that only some workloads reach). *)
let workload_run ~w ~seed ~seconds ~trace =
  require_default_config ();
  if not trace then begin
    let launches_n = max 1 (int_of_float (Float.round (seconds /. default_slice))) in
    let launches =
      run_rounds ~seed ~rounds:launches_n ~slice:(seconds /. float_of_int launches_n) ~traced:false [ w ]
    in
    let r = e2e_metrics w launches in
    print_e2e r;
    first_errors launches;
    print_result ~correct:(r.failed = 0) ~attempted:r.attempted ~failed:r.failed
      (List.filter
         (fun (k, _, _) -> List.mem k [ "throughput_rps"; "latency_p50_ms"; "setup_s"; "peak_rss_mb" ])
         r.metrics);
    if r.failed > 0 then exit 1
  end
  else begin
    let ws = starting_at w in
    let slice = Float.max 1. (seconds /. float_of_int (List.length ws)) in
    let launches = run_rounds ~seed ~rounds:1 ~slice ~traced:true ws in
    write_file
      (Printf.sprintf "%s/trace-%s-seed%d.json" out_dir w.name seed)
      (chrome_trace launches);
    first_errors launches;
    let attempted = count_sum "attempted" launches and failed = count_sum "failed" launches in
    print_result ~correct:(failed = 0) ~attempted ~failed (per_layer_metrics launches);
    if failed > 0 then exit 1
  end

let set ~seed ~rounds ~slice ~out =
  require_default_config ();
  let launches = run_rounds ~rotate:seed ~seed ~rounds ~slice ~traced:false Workload.all_workloads in
  let results = List.map (fun w -> e2e_metrics w (launches_of w launches)) Workload.all_workloads in
  List.iter print_e2e results;
  first_errors launches;
  write_file out
    (Obs.Json.Obj
       (meta ~seed ~rounds ~slice ~traced:false
       @ [ "workloads", Obs.Json.List (List.map e2e_json results) ]));
  if List.exists (fun r -> r.failed > 0) results then exit 1

let trace ~seed ~rounds ~slice ~out ~spans =
  require_default_config ();
  let launches = run_rounds ~rotate:seed ~seed ~rounds ~slice ~traced:true Workload.all_workloads in
  let layers = per_layer_metrics launches in
  List.iter (fun (k, u, v) -> Printf.printf "%-26s %12.4f %s\n" k v u) layers;
  first_errors launches;
  write_file spans (chrome_trace launches);
  write_file out
    (Obs.Json.Obj (meta ~seed ~rounds ~slice ~traced:true @ [ "per_layer", metrics_json layers ]));
  if count_sum "failed" launches > 0 then exit 1

(* One request and one replica per workload, every verdict asserted,
   plus the replica/real agreements; the runtest rule runs this. *)
let check () =
  Par.Pool.set_domains domains;
  let results =
    List.map
      (fun (w : Workload.t) ->
        ( w.name,
          try
            let inst = w.setup ~traced:true (Random.State.make [| 0 |]) in
            Workload.all [ inst.request; inst.replica ]
          with e -> Error (Printexc.to_string e) ))
      Workload.all_workloads
    @ [ "invariants vs reference", Workload.invariants_agree_with_reference () ]
  in
  let bad =
    List.filter_map
      (fun (name, r) ->
        match r with
        | Ok () ->
            Printf.printf "ok   %s\n" name;
            None
        | Error e ->
            Printf.printf "FAIL %s: %s\n" name e;
            Some name)
      results
  in
  if bad <> [] then exit 1

(* ------------------------------- compare ------------------------------ *)

let read_json path =
  match In_channel.with_open_text path In_channel.input_all with
  | exception Sys_error e -> die "%s" e
  | s -> ( match Obs.Json.parse s with Ok j -> j | Error e -> die "%s: %s" path e)

let field path k j =
  match Obs.Json.member k j with Some v -> v | None -> die "%s: no %S" path k

let str path k j =
  match Obs.Json.to_str (field path k j) with Some s -> s | None -> die "%s: %S is not a string" path k

let number path k j =
  match Obs.Json.to_number (field path k j) with
  | Some f -> f
  | None -> die "%s: %S is not a number" path k

let items path k j =
  match Obs.Json.to_list (field path k j) with Some l -> l | None -> die "%s: %S is not a list" path k

(* workload name -> metrics object of a set result file *)
let set_file path =
  let j = read_json path in
  if Obs.Json.member "schema" j <> Some (Obs.Json.Str "asura-e2e/1") then
    die "%s: not an asura-e2e/1 set result" path;
  if Obs.Json.member "traced" j = Some (Obs.Json.Bool true) then
    die "%s: a traced run carries no end-to-end metrics" path;
  List.map (fun w -> str path "name" w, field path "metrics" w) (items path "workloads" j)

let compare a b =
  let spec = "BENCHMARK.json" in
  let gated =
    List.map
      (fun m -> str spec "name" m, str spec "better" m = "higher", number spec "bound" m)
      (items spec "end_to_end" (read_json spec))
  in
  let wa = set_file a and wb = set_file b in
  if List.map fst wa <> List.map fst wb then die "%s and %s cover different workloads" a b;
  let outside = ref 0 in
  Printf.printf "%-13s %-15s %12s %12s %8s %6s\n" "workload" "metric" "A" "B" "change" "bound";
  List.iter
    (fun (name, ma) ->
      let mb = List.assoc name wb in
      List.iter
        (fun (metric, higher_better, bound) ->
          let va = number a metric ma and vb = number b metric mb in
          let change = (vb -. va) /. va in
          let worse = if higher_better then -.change else change in
          let bad = not (worse <= bound) in
          if bad then incr outside;
          Printf.printf "%-13s %-15s %12.4f %12.4f %+7.1f%% %5.0f%% %s\n" name metric va vb
            (100. *. change) (100. *. bound) (if bad then "OUTSIDE" else "ok"))
        gated;
      let errors = number b "error_rate" mb in
      if errors <> 0. then begin
        incr outside;
        Printf.printf "%-13s %-15s %12s %12.4f must be 0 OUTSIDE\n" name "error_rate" "" errors
      end)
    wa;
  if !outside > 0 then exit 1

(* ------------------------------ arguments ----------------------------- *)

let usage =
  "usage:\n\
  \  e2e.exe --workload NAME --seed N --seconds S --trace 0|1\n\
  \  e2e.exe set [--seed N] [-o FILE]\n\
  \  e2e.exe trace [--seed N] [-o FILE] [--spans FILE]\n\
  \  e2e.exe check\n\
  \  e2e.exe compare A.json B.json"

let parse_flags ~known args =
  let rec go acc = function
    | [] -> acc
    | k :: v :: rest when List.mem k known -> go ((k, v) :: acc) rest
    | arg :: _ -> die "unexpected argument %S\n%s" arg usage
  in
  go [] args

(* [default = None] makes the flag required. *)
let flag flags k ?default conv =
  match List.assoc_opt k flags, default with
  | Some v, _ -> ( match conv v with Some x -> x | None -> die "bad %s value %S" k v)
  | None, Some d -> d
  | None, None -> die "missing %s\n%s" k usage

let positive_float v = match float_of_string_opt v with Some x when x > 0. -> Some x | _ -> None
let out_file f seed kind = flag f "-o" ~default:(Printf.sprintf "%s/%s-seed%d.json" out_dir kind seed) Option.some

let () =
  match List.tl (Array.to_list Sys.argv) with
  | [ "child"; name; seed; launch; slice; traced ] ->
      child ~w:(workload_named name) ~seed:(int_of_string seed) ~launch:(int_of_string launch)
        ~slice:(float_of_string slice) ~traced:(traced = "1")
  | [ "check" ] -> check ()
  | [ "compare"; a; b ] -> compare a b
  | "set" :: args ->
      let f = parse_flags ~known:[ "--seed"; "-o" ] args in
      let seed = flag f "--seed" ~default:1 int_of_string_opt in
      set ~seed ~rounds:10 ~slice:default_slice ~out:(out_file f seed "set")
  | "trace" :: args ->
      let f = parse_flags ~known:[ "--seed"; "-o"; "--spans" ] args in
      let seed = flag f "--seed" ~default:1 int_of_string_opt in
      trace ~seed ~rounds:3 ~slice:default_slice ~out:(out_file f seed "trace")
        ~spans:(flag f "--spans" ~default:(Printf.sprintf "%s/spans-seed%d.json" out_dir seed) Option.some)
  | args when List.mem "--workload" args ->
      let f = parse_flags ~known:[ "--workload"; "--seed"; "--seconds"; "--trace" ] args in
      workload_run
        ~w:(workload_named (flag f "--workload" Option.some))
        ~seed:(flag f "--seed" int_of_string_opt)
        ~seconds:(flag f "--seconds" positive_float)
        ~trace:(flag f "--trace" (function "0" -> Some false | "1" -> Some true | _ -> None))
  | _ -> die "%s" usage
