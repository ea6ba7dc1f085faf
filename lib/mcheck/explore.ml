type violation = {
  kind : [ `Coherence | `Stale_data | `Unhandled | `Deadlock ];
  detail : string;
  trace : string list;
}

type result = {
  explored : int;
  transitions : int;
  max_depth : int;
  elapsed : float;
  violation : violation option;
  complete : bool;
  dedup_hits : int;  (** successor states already in the visited set *)
  per_depth : (int * int) list;  (** states expanded at each BFS depth *)
  max_frontier : int;  (** peak BFS queue length *)
  states : string list option;
      (** sorted visited-set keys, when requested with [keep_states] *)
  engine : string;  (** which exploration core produced this result *)
  participants : int;  (** search participants; depths are BFS depths at 1 *)
  probabilistic : bool;
      (** dedup used hash compaction: a fingerprint collision may have
          hidden states, so "no violation" is high-confidence, not
          proof *)
}

let states_per_sec r =
  if r.elapsed <= 0. then 0. else float_of_int r.explored /. r.elapsed

let dedup_rate r =
  if r.transitions = 0 then 0.
  else float_of_int r.dedup_hits /. float_of_int r.transitions

let classify detail =
  if String.length detail >= 5 && String.sub detail 0 5 = "stale" then
    `Stale_data
  else `Unhandled

let obs_reg = lazy (Obs.Metrics.registry "mcheck")

(* Mutable search bookkeeping shared by the reference and stealing
   engines; [finish] renders it into a {!result}.  [t0] is a monotonic
   wall-clock reading: process CPU time would sum every domain's work
   and over-count parallel runs. *)
type search = {
  t0 : int64;
  mutable s_explored : int;
  mutable s_transitions : int;
  mutable s_max_depth : int;
  mutable s_dedup_hits : int;
  mutable s_max_frontier : int;
  s_per_depth : (int, int) Hashtbl.t;
  depth_histogram : Obs.Metrics.histogram;
}

let new_search () =
  {
    t0 = Obs.Clock.now_ns ();
    s_explored = 0;
    s_transitions = 0;
    s_max_depth = 0;
    s_dedup_hits = 0;
    s_max_frontier = 0;
    s_per_depth = Hashtbl.create 64;
    depth_histogram =
      Obs.Metrics.histogram
        ~bounds:(Obs.Metrics.exponential_bounds ~start:1. ~factor:2. 12)
        (Lazy.force obs_reg) "expansion_depth";
  }

(* Per-state bookkeeping at expansion time in the reference engine:
   the frontier length is sampled before the state is counted. *)
let expand_state sr ~frontier ~depth =
  if frontier > sr.s_max_frontier then sr.s_max_frontier <- frontier;
  (* sample the frontier sparsely so tracing stays cheap *)
  if sr.s_explored land 1023 = 0 then
    Obs.Trace.counter "mcheck.frontier" [ "queued", float_of_int frontier ];
  Obs.Flightrec.record ~tag:Obs.Flightrec.tag_expand ~a:depth ~b:frontier ~c:0;
  sr.s_explored <- sr.s_explored + 1;
  Hashtbl.replace sr.s_per_depth depth
    (1 + Option.value (Hashtbl.find_opt sr.s_per_depth depth) ~default:0);
  Obs.Metrics.observe sr.depth_histogram (float_of_int depth);
  if depth > sr.s_max_depth then sr.s_max_depth <- depth

(* The --progress heartbeat.  Only ever called from the spawning domain
   (the reference loop, or stealing participant 0, which runs there),
   so snapshotting coverage shards is safe.  [Runlog.tick] rate-limits
   to the configured interval; when --progress is off this is one
   match. *)
let heartbeat_vals ~t0 ~max_states ~explored ~frontier ~max_depth =
  Obs.Runlog.tick (fun () ->
      (* The first tick can fire with elapsed ~ 0 (or exactly 0 at clock
         granularity): dividing by it yields an absurd or non-finite
         rate, and the ETA then prints as inf/nan.  Below a millisecond
         of elapsed time there is no meaningful rate yet. *)
      let elapsed = Obs.Clock.to_s (Obs.Clock.since t0) in
      let rate =
        if elapsed < 1e-3 then 0. else float_of_int explored /. elapsed
      in
      let rate = if Float.is_finite rate && rate > 0. then rate else 0. in
      let covered, rows = Obs.Coverage.totals (Obs.Coverage.snapshot ()) in
      let eta =
        if rate <= 0. then "?"
        else
          let s = float_of_int (max 0 (max_states - explored)) /. rate in
          if Float.is_finite s then Printf.sprintf "%.0fs" s else "?"
      in
      Printf.sprintf
        "[mcheck] explored=%d frontier=%d depth=%d states/s=%.0f \
         coverage=%.1f%% eta<=%s"
        explored frontier max_depth rate
        (Obs.Coverage.percent ~covered ~rows)
        eta)

let heartbeat sr ~max_states ~frontier =
  heartbeat_vals ~t0:sr.t0 ~max_states ~explored:sr.s_explored ~frontier
    ~max_depth:sr.s_max_depth

let violation_code = function
  | `Coherence -> 0
  | `Stale_data -> 1
  | `Unhandled -> 2
  | `Deadlock -> 3

let finish sr ~states ~engine ~participants ~probabilistic violation complete =
  let elapsed = Obs.Clock.to_s (Obs.Clock.since sr.t0) in
  (* the stop reason closes the flight recording, so a drain's tail
     explains *why* the engine stopped right after *what* it was doing *)
  (match violation with
  | Some v ->
      let tag =
        if v.kind = `Deadlock then Obs.Flightrec.tag_deadlock
        else Obs.Flightrec.tag_violation
      in
      Obs.Flightrec.record ~tag ~a:(violation_code v.kind) ~b:sr.s_max_depth ~c:0
  | None -> ());
  Obs.Flightrec.record ~tag:Obs.Flightrec.tag_stop
    ~a:
      (if violation <> None then Obs.Flightrec.stop_violation
       else if complete then Obs.Flightrec.stop_complete
       else Obs.Flightrec.stop_budget)
    ~b:sr.s_explored ~c:0;
  let reg = Lazy.force obs_reg in
  Obs.Metrics.add (Obs.Metrics.counter reg "states_explored") sr.s_explored;
  Obs.Metrics.add (Obs.Metrics.counter reg "transitions") sr.s_transitions;
  Obs.Metrics.add (Obs.Metrics.counter reg "dedup_hits") sr.s_dedup_hits;
  Obs.Metrics.set
    (Obs.Metrics.gauge reg "states_per_sec")
    (if elapsed <= 0. then 0. else float_of_int sr.s_explored /. elapsed);
  Obs.Metrics.set
    (Obs.Metrics.gauge reg "max_frontier")
    (float_of_int sr.s_max_frontier);
  if Obs.Runlog.configured () then
    Obs.Runlog.note "mcheck"
      (Obs.Json.Obj
         [
           ("explored", Obs.Json.Int sr.s_explored);
           ("transitions", Obs.Json.Int sr.s_transitions);
           ("max_depth", Obs.Json.Int sr.s_max_depth);
           ("elapsed_s", Obs.Json.Float elapsed);
           ( "states_per_sec",
             Obs.Json.Float
               (if elapsed <= 0. then 0.
                else float_of_int sr.s_explored /. elapsed) );
           ("max_frontier", Obs.Json.Int sr.s_max_frontier);
           ("dedup_hits", Obs.Json.Int sr.s_dedup_hits);
           ("complete", Obs.Json.Bool complete);
           ("engine", Obs.Json.Str engine);
           ("probabilistic", Obs.Json.Bool probabilistic);
           ( "violation",
             match violation with
             | None -> Obs.Json.Null
             | Some v -> Obs.Json.Str v.detail );
         ]);
  {
    explored = sr.s_explored;
    transitions = sr.s_transitions;
    max_depth = sr.s_max_depth;
    elapsed;
    violation;
    complete;
    dedup_hits = sr.s_dedup_hits;
    per_depth =
      List.sort compare
        (Hashtbl.fold (fun d n acc -> (d, n) :: acc) sr.s_per_depth []);
    max_frontier = sr.s_max_frontier;
    states;
    engine;
    participants;
    probabilistic;
  }

exception Found of violation

(* ------------------------- reference engine --------------------------- *)

(* The boxed sequential oracle: FIFO BFS over Marshal-string keys with
   exact parent pointers.  [engine] names the result: ["seq"] when a
   test or benchmark calls it, ["steal"] when it replays a violation
   the packed engine found. *)
let boxed_bfs ~engine ~max_states ~keep_states ~state_key ~tables config =
  let sr = new_search () in
  let initial = Mstate.initial ~nodes:config.Semantics.nodes ~addrs:config.addrs in
  let visited : (string, unit) Hashtbl.t = Hashtbl.create 4096 in
  let parent : (string, string * string) Hashtbl.t = Hashtbl.create 4096 in
  let queue = Queue.create () in
  let initial_key = state_key initial in
  Hashtbl.add visited initial_key ();
  Queue.add (initial, initial_key, 0) queue;
  let trace_to key =
    let rec go key acc =
      match Hashtbl.find_opt parent key with
      | None -> acc
      | Some (pkey, label) -> go pkey (label :: acc)
    in
    go key []
  in
  let states () =
    if keep_states then
      Some
        (List.sort compare
           (Hashtbl.fold (fun k () acc -> k :: acc) visited []))
    else None
  in
  try
    while not (Queue.is_empty queue) do
      if sr.s_explored >= max_states then raise Exit;
      let frontier = Queue.length queue in
      let st, key, depth = Queue.take queue in
      expand_state sr ~frontier ~depth;
      heartbeat sr ~max_states ~frontier;
      (match Semantics.state_violations config st with
      | [] -> ()
      | detail :: _ ->
          raise (Found { kind = `Coherence; detail; trace = trace_to key }));
      let succs = Semantics.successors tables config st in
      if succs = [] && not (Mstate.quiescent st) then
        raise
          (Found
             {
               kind = `Deadlock;
               detail = "no transition enabled but work is pending";
               trace = trace_to key;
             });
      List.iter
        (fun (label, outcome) ->
          sr.s_transitions <- sr.s_transitions + 1;
          match outcome with
          | Semantics.Broken detail ->
              raise
                (Found
                   {
                     kind = classify detail;
                     detail;
                     trace = trace_to key @ [ label ];
                   })
          | Semantics.Next st' ->
              let key' = state_key st' in
              if Hashtbl.mem visited key' then begin
                sr.s_dedup_hits <- sr.s_dedup_hits + 1;
                Obs.Flightrec.record ~tag:Obs.Flightrec.tag_dedup
                  ~a:(depth + 1) ~b:1 ~c:0
              end
              else begin
                Obs.Flightrec.record ~tag:Obs.Flightrec.tag_dedup
                  ~a:(depth + 1) ~b:0 ~c:0;
                Hashtbl.add visited key' ();
                Hashtbl.add parent key' (key, label);
                Queue.add (st', key', depth + 1) queue
              end)
        succs
    done;
    finish sr ~states:(states ()) ~engine ~participants:1 ~probabilistic:false None true
  with
  | Exit -> finish sr ~states:(states ()) ~engine ~participants:1 ~probabilistic:false None false
  | Found v ->
      finish sr ~states:(states ()) ~engine ~participants:1 ~probabilistic:false (Some v) true

(* ------------------------ work-stealing engine ------------------------ *)

(* Glue between the controller tables and the bit-packer: seed every
   per-field code table with the full vocabulary that can ever reach a
   state, so packing inside stealing workers only ever reads its
   symbol-to-code arrays.  The protocol-level constants that the semantics
   writes programmatically (cache fills, reissued request names, backoff
   markers) are appended to what {!Semantics.pack_vocab} harvests from
   the table cells. *)
let layout_of_tables tables (config : Semantics.config) =
  let vocab = Semantics.pack_vocab tables in
  let cols names extra =
    List.sort_uniq compare
      (extra
      @ List.concat_map
          (fun c -> Option.value (List.assoc_opt c vocab) ~default:[])
          names)
  in
  let pend_base = cols [ "pendop" ] [] in
  Pack.layout ~nodes:config.nodes ~addrs:config.addrs
    ~capacity:config.capacity
    ~dirst:(cols [ "dirst"; "nxtdirst" ] [ "I" ])
    ~bst:(cols [ "bdirst"; "nxtbdirst" ] [ "I" ])
    ~cache:(cols [ "cachest"; "nxtcachest" ] [ "I"; "S"; "E"; "M" ])
    ~pend:
      (List.sort_uniq compare
         (pend_base @ List.map (fun op -> "backoff:" ^ op) pend_base))
    ~msg:
      (cols
         [ "inmsg"; "reqmsg"; "locmsg"; "remmsg"; "memmsg"; "respmsg";
           "ackmsg"; "outmsg" ]
         [ "read"; "fetch"; "readex"; "swap"; "upgrade"; "wb" ])
    ()

(* One-slot caches for the two per-search build steps the packed
   engine pays before touching a single state: compiling the coded rule
   dispatch (about 4 ms for all six tables on a 2-vCPU host) and
   harvesting the packed layout's code tables.  Callers that loop over
   [run] with the same tables value — the benchmarks, the differential
   suites, repeated CLI sweeps — hit the cache on physical identity and
   skip the rebuild.  Reuse is sound: the dispatch is compiled from the
   same rows and never changes, and a layout's code tables only ever
   grow (codes never change), so packing stays exact across searches.
   A racing miss merely rebuilds; the slots are plain refs on
   purpose. *)
let index_cache : (Semantics.tables * Semantics.tables) option ref = ref None

let indexed_tables tables =
  match !index_cache with
  | Some (raw, indexed) when raw == tables -> indexed
  | _ ->
      let indexed = Semantics.index_tables tables in
      index_cache := Some (tables, indexed);
      indexed

(* A layout reads only [nodes], [addrs] and [capacity] of the config,
   so searches that differ in ops or lossiness (the all-ops and lossy
   searches of one sweep) share it. *)
let layout_cache :
    (Semantics.tables * (int * int * int) * Pack.layout) option ref =
  ref None

let cached_layout tables (config : Semantics.config) =
  let shape = (config.nodes, config.addrs, config.capacity) in
  match !layout_cache with
  | Some (raw, s, layout) when raw == tables && s = shape -> layout
  | _ ->
      let layout = layout_of_tables tables config in
      layout_cache := Some (tables, shape, layout);
      layout

(* Per-participant bookkeeping of the stealing engine.  Everything
   order-free (counts, per-depth sums) merges after the join; anything
   schedule-dependent (depths under racing discovery orders, the
   frontier gauge) is documented as approximate in steal mode. *)
type sacc = {
  sa_self : int;
  mutable sa_explored : int;
  mutable sa_transitions : int;
  mutable sa_dedup : int;
  mutable sa_max_depth : int;
  sa_per_depth : (int, int) Hashtbl.t;
  mutable sa_violation : violation option;
}

(* The frontier never synchronizes: per-participant deques with
   randomized stealing (Par.Pool.steal_loop), dedup through the sharded
   packed visited set, and an atomic ticket counter bounding the search
   at exactly [max_states] expansions.  On a violation the search stops
   and — in exact mode — the boxed sequential reference engine replays
   the whole search, so verdicts and counterexample traces are
   bit-identical to [run_reference]; the steal path itself only ever proves
   the *absence* of violations.  With [compact_bits] the replay is
   skipped (the point of compaction is that the full search does not
   fit) and the violation is reported without a trace. *)
let run_steal ~max_states ~keep_states ~state_key ~symmetry
    ~compact_bits ~tables config =
  let sr = new_search () in
  let layout = cached_layout tables config in
  (* the packed engine dispatches rules through the bucketed index —
     same first-match row, a fraction of the guard scans; the boxed
     reference engine keeps the naive scan *)
  let tables = indexed_tables tables in
  let key_of =
    if symmetry then Pack.canonical layout else Pack.pack ?perm:None layout
  in
  let visited = Pack.Vset.create ?compact_bits () in
  let initial =
    Mstate.initial ~nodes:config.Semantics.nodes ~addrs:config.addrs
  in
  ignore (Pack.Vset.add visited (key_of initial) : bool);
  let budget = Atomic.make max_states in
  let truncated = Atomic.make false in
  let inflight = Atomic.make 1 in
  let maxfront = Atomic.make 1 in
  let accs =
    Par.Pool.steal_loop
      ~init:(fun i ->
        {
          sa_self = i;
          sa_explored = 0;
          sa_transitions = 0;
          sa_dedup = 0;
          sa_max_depth = 0;
          sa_per_depth = Hashtbl.create 64;
          sa_violation = None;
        })
      ~work:(fun acc ctl (st, depth) ->
        Atomic.decr inflight;
        let ticket = Atomic.fetch_and_add budget (-1) in
        if ticket <= 0 then begin
          Atomic.set truncated true;
          ctl.Par.Pool.stop ()
        end
        else begin
          acc.sa_explored <- acc.sa_explored + 1;
          Obs.Flightrec.record ~tag:Obs.Flightrec.tag_expand ~a:depth
            ~b:(Atomic.get inflight) ~c:0;
          Hashtbl.replace acc.sa_per_depth depth
            (1 + Option.value (Hashtbl.find_opt acc.sa_per_depth depth) ~default:0);
          if depth > acc.sa_max_depth then acc.sa_max_depth <- depth;
          (* the progress heartbeat stays on the spawning domain
             (participant 0 runs there), per the Runlog contract *)
          if acc.sa_self = 0 then
            heartbeat_vals ~t0:sr.t0 ~max_states
              ~explored:(min max_states (max_states - Atomic.get budget))
              ~frontier:(Atomic.get inflight) ~max_depth:acc.sa_max_depth;
          match Semantics.state_violations config st with
          | detail :: _ ->
              acc.sa_violation <- Some { kind = `Coherence; detail; trace = [] };
              ctl.Par.Pool.stop ()
          | [] ->
              let succs = Semantics.successors ~labels:false tables config st in
              if succs = [] && not (Mstate.quiescent st) then begin
                acc.sa_violation <-
                  Some
                    {
                      kind = `Deadlock;
                      detail = "no transition enabled but work is pending";
                      trace = [];
                    };
                ctl.Par.Pool.stop ()
              end
              else
                List.iter
                  (fun (_label, outcome) ->
                    acc.sa_transitions <- acc.sa_transitions + 1;
                    match outcome with
                    | Semantics.Broken detail ->
                        if acc.sa_violation = None then
                          acc.sa_violation <-
                            Some { kind = classify detail; detail; trace = [] };
                        ctl.Par.Pool.stop ()
                    | Semantics.Next st' ->
                        if Pack.Vset.add visited (key_of st') then begin
                          Obs.Flightrec.record ~tag:Obs.Flightrec.tag_dedup
                            ~a:(depth + 1) ~b:0 ~c:0;
                          let n = Atomic.fetch_and_add inflight 1 + 1 in
                          if n > Atomic.get maxfront then Atomic.set maxfront n;
                          ctl.Par.Pool.push (st', depth + 1)
                        end
                        else begin
                          acc.sa_dedup <- acc.sa_dedup + 1;
                          Obs.Flightrec.record ~tag:Obs.Flightrec.tag_dedup
                            ~a:(depth + 1) ~b:1 ~c:0
                        end)
                  succs
        end)
      [ initial, 0 ]
  in
  let violation =
    Array.fold_left
      (fun found a -> match found with Some _ -> found | None -> a.sa_violation)
      None accs
  in
  match violation with
  | Some _ when compact_bits = None ->
      (* exact mode: replay through the boxed reference engine for the
         bit-identical verdict and counterexample trace *)
      let r =
        boxed_bfs ~engine:"steal" ~max_states ~keep_states ~state_key ~tables
          config
      in
      if r.violation <> None then r
      else
        (* the bounded replay visited a different subset and missed it:
           keep the steal verdict, traceless *)
        { r with violation; complete = true }
  | _ ->
      Array.iter
        (fun a ->
          sr.s_explored <- sr.s_explored + a.sa_explored;
          sr.s_transitions <- sr.s_transitions + a.sa_transitions;
          sr.s_dedup_hits <- sr.s_dedup_hits + a.sa_dedup;
          if a.sa_max_depth > sr.s_max_depth then
            sr.s_max_depth <- a.sa_max_depth;
          Hashtbl.iter
            (fun d n ->
              Hashtbl.replace sr.s_per_depth d
                (n + Option.value (Hashtbl.find_opt sr.s_per_depth d) ~default:0))
            a.sa_per_depth)
        accs;
      sr.s_max_frontier <- Atomic.get maxfront;
      if Obs.Config.on () then
        Hashtbl.iter
          (fun d n ->
            for _ = 1 to n do
              Obs.Metrics.observe sr.depth_histogram (float_of_int d)
            done)
          sr.s_per_depth;
      let states =
        if keep_states && compact_bits = None then begin
          let acc = ref [] in
          Pack.Vset.iter visited (fun v ->
              acc := state_key (Pack.unpack layout v) :: !acc);
          Some (List.sort compare !acc)
        end
        else None
      in
      let complete = not (Atomic.get truncated) in
      finish sr ~states ~engine:"steal" ~participants:(Array.length accs)
        ~probabilistic:(compact_bits <> None)
        violation complete

(* Both entry points share the ["mcheck.run"] span, so a trace times
   the oracle and the packed engine alike. *)
let with_search ~max_states ~symmetry ~tables config search =
  Obs.Trace.with_span ~cat:"mcheck"
    ~args:
      [ "nodes", Obs.Json.Int config.Semantics.nodes;
        "addrs", Obs.Json.Int config.Semantics.addrs;
        "domains", Obs.Json.Int (Par.Pool.domains ()) ]
    "mcheck.run"
  @@ fun () ->
  let tables = match tables with Some t -> t | None -> Semantics.load_tables () in
  let state_key =
    if symmetry then Mstate.canonical_key ~nodes:config.Semantics.nodes
    else Mstate.key
  in
  search ~max_states ~state_key ~tables config

let run ?(max_states = 200_000) ?(symmetry = false) ?tables
    ?(keep_states = false) ?compact_bits config =
  with_search ~max_states ~symmetry ~tables config
    (run_steal ~keep_states ~symmetry ~compact_bits)

let run_reference ?(max_states = 200_000) ?(symmetry = false) ?tables
    ?(keep_states = false) config =
  with_search ~max_states ~symmetry ~tables config
    (boxed_bfs ~engine:"seq" ~keep_states)

let pp_result fmt r =
  Format.fprintf fmt
    "states=%d transitions=%d depth=%d time=%.2fs (%.0f states/s, dedup \
     %.0f%%) engine=%s%s%s %s"
    r.explored r.transitions r.max_depth r.elapsed (states_per_sec r)
    (100. *. dedup_rate r)
    r.engine
    (if r.probabilistic then " (probabilistic)" else "")
    (if r.participants > 1 then " (schedule-dependent depth)" else "")
    (match r.violation with
    | None -> if r.complete then "no violations" else "bounded, no violations"
    | Some v ->
        Printf.sprintf "VIOLATION %s (trace length %d)" v.detail
          (List.length v.trace))

let pp_depth_profile fmt r =
  if r.participants > 1 then
    Format.fprintf fmt
      "depth histogram (states expanded per discovery depth, \
       schedule-dependent at %d participants):@."
      r.participants
  else Format.fprintf fmt "depth histogram (states expanded per BFS depth):@.";
  let widest =
    List.fold_left (fun acc (_, n) -> max acc n) 1 r.per_depth
  in
  List.iter
    (fun (depth, n) ->
      let bar = max 1 (n * 40 / widest) in
      Format.fprintf fmt "  %3d %8d %s@." depth n (String.make bar '#'))
    r.per_depth
