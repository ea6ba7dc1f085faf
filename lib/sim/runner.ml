type config = {
  channels : Mcheck.Vcmap.t;
  nodes : int;
  addrs : int;
  io_addrs : int list;
}

let uniform_capacity n _ = n

type event =
  | Issue of { node : int; addr : int; op : string }
  | Deliver of { src : int; dst : int; cls : string }

type result =
  | Quiescent of { steps : int }
  | Deadlock of {
      steps : int;
      occupancy : (string * int) list;
      blocked : string list;
    }

exception Script_error of string

let tables = lazy Mcheck.Semantics.(index_tables (load_tables ()))

(* resolved after the tables load: every message they name is interned *)
let config ?(io_addrs = []) ~nodes ~addrs ~capacity (v : Checker.Vcassign.t) =
  ignore (Lazy.force tables);
  let row (a : Checker.Vcassign.assignment) = (a.msg, a.src, a.dst, a.vc) in
  let channels = Mcheck.Vcmap.resolve ~capacity (List.map row v.rows) in
  { channels; nodes; addrs; io_addrs }

let collect () =
  let log = ref [] in
  (fun line -> log := line :: !log), fun () -> List.rev !log

(* The one virtual-channel check: a step is enabled only if its outputs
   fit their channels. *)
let fits config st = Mcheck.Vcmap.fits config.channels st
let occupancy config st = Mcheck.Vcmap.occupancy config.channels st

let name = Mcheck.Mstate.name

let try_deliver config st ((src, dst, cls) as key) =
  match Mcheck.Mstate.dequeue st key with
  | None -> None
  | Some (msg, st') -> (
      match
        Mcheck.Semantics.deliver ~io_addrs:config.io_addrs (Lazy.force tables)
          st' ~cls ~dst msg
      with
      | Mcheck.Semantics.Broken reason -> raise (Script_error reason)
      | Mcheck.Semantics.Next st'' when fits config st'' ->
          Some
            ( Printf.sprintf "deliver %s %d->%d (%s)" (name msg.m) src dst
                (name cls),
              st'' )
      | Mcheck.Semantics.Next _ -> None)

let try_issue config st ~node ~addr ~op =
  match Mcheck.Mstate.pending st ~node ~addr with
  | Some _ -> None
  | None -> (
      match Mcheck.Semantics.issue_op (Lazy.force tables) st ~node ~addr ~op with
      | Some st' when fits config st' ->
          Some (Printf.sprintf "issue %s node%d addr%d" (name op) node addr, st')
      | Some _ | None -> None)

let try_reissue config st ~node ~addr =
  match Mcheck.Semantics.reissue st ~node ~addr with
  | Some st' when fits config st' ->
      Some (Printf.sprintf "reissue node%d addr%d" node addr, st')
  | Some _ | None -> None

let apply_event config st = function
  | Issue { node; addr; op } -> (
      match try_issue config st ~node ~addr ~op:(Mcheck.Mstate.intern op) with
      | Some r -> r
      | None ->
          raise
            (Script_error
               (Printf.sprintf "issue %s node%d addr%d not enabled" op node
                  addr)))
  | Deliver { src; dst; cls } -> (
      match try_deliver config st (src, dst, Mcheck.Mstate.intern cls) with
      | Some r -> r
      | None ->
          raise
            (Script_error
               (Printf.sprintf "deliver %d->%d (%s) not enabled" src dst cls)))

let blocked_heads config st =
  List.filter_map
    (fun ((src, dst, cls), (m : Mcheck.Mstate.msg)) ->
      match try_deliver config st (src, dst, cls) with
      | Some _ -> None
      | None ->
          Some
            (Printf.sprintf "%s %d->%d (%s) blocked: outputs do not fit"
               (name m.m) src dst (name cls)))
    (Mcheck.Mstate.queue_heads st)

let obs_reg = lazy (Obs.Metrics.registry "sim")

let record_wedge ~t0 ~steps result =
  match result with
  | Quiescent _ -> ()
  | Deadlock { blocked; _ } ->
      let latency_ms = Obs.Clock.to_ms (Obs.Clock.since t0) in
      let reg = Lazy.force obs_reg in
      Obs.Metrics.incr (Obs.Metrics.counter reg "wedges_detected");
      Obs.Metrics.set
        (Obs.Metrics.gauge reg "wedge_detect_latency_ms")
        latency_ms;
      Obs.Trace.instant ~cat:"sim"
        ~args:
          [ "steps", Obs.Json.Int steps;
            "blocked", Obs.Json.Int (List.length blocked) ]
        "sim.wedge"

let run ?(script = []) ?(trace = fun _ -> ()) ?(max_steps = 10_000) config st =
  Obs.Trace.with_span ~cat:"sim" "sim.run" @@ fun () ->
  let t0 = Obs.Clock.now_ns () in
  let steps = ref 0 in
  let st = ref st in
  (* Every step a run takes lands here: the step count, the trace line,
     one Chrome counter sample (Perfetto renders the series as a stacked
     per-virtual-channel occupancy track) and the --progress heartbeat
     (a single match when progress is off). *)
  let commit (label, st') =
    incr steps;
    trace label;
    st := st';
    if Obs.Config.on () then
      Obs.Trace.counter "sim.vc_occupancy"
        (List.map (fun (vc, n) -> (vc, float_of_int n)) (occupancy config st'));
    Obs.Runlog.tick (fun () ->
        Printf.sprintf "[sim] steps=%d in_flight=%d" !steps
          (List.fold_left (fun acc (_, n) -> acc + n) 0 (occupancy config st')))
  in
  let step = function Some s -> commit s; true | None -> false in
  List.iter (fun ev -> commit (apply_event config !st ev)) script;
  let nodes = List.init config.nodes Fun.id in
  let addrs = List.init config.addrs Fun.id in
  let wedged blocked =
    Deadlock { steps = !steps; occupancy = occupancy config !st; blocked }, !st
  in
  let rec free_run () =
    if !steps >= max_steps then wedged [ "step budget exhausted (livelock?)" ]
    else if Mcheck.Mstate.quiescent !st then Quiescent { steps = !steps }, !st
    else
      let heads = Mcheck.Mstate.queue_heads !st in
      if
        List.exists (fun (key, _) -> step (try_deliver config !st key)) heads
        (* nothing deliverable: let a backed-off processor op re-enter *)
        || List.exists
             (fun node ->
               List.exists
                 (fun addr -> step (try_reissue config !st ~node ~addr))
                 addrs)
             nodes
      then free_run ()
      else if heads = [] then
        (* pending processor state but nothing in flight: wedged *)
        wedged [ "no messages in flight" ]
      else wedged (blocked_heads config !st)
  in
  let result, final = free_run () in
  record_wedge ~t0 ~steps:!steps result;
  if Obs.Runlog.configured () then
    Obs.Runlog.note "sim"
      (Obs.Json.Obj
         [
           ("steps", Obs.Json.Int !steps);
           ( "result",
             Obs.Json.Str
               (match result with
               | Quiescent _ -> "quiescent"
               | Deadlock _ -> "deadlock") );
           ( "blocked",
             match result with
             | Quiescent _ -> Obs.Json.Int 0
             | Deadlock { blocked; _ } -> Obs.Json.Int (List.length blocked) );
         ]);
  result, final

let pp_result fmt = function
  | Quiescent { steps } -> Format.fprintf fmt "quiescent after %d steps" steps
  | Deadlock { steps; occupancy; blocked } ->
      Format.fprintf fmt "DEADLOCK after %d steps@." steps;
      List.iter
        (fun (vc, n) -> Format.fprintf fmt "  %s: %d in flight@." vc n)
        occupancy;
      List.iter (fun b -> Format.fprintf fmt "  %s@." b) blocked
