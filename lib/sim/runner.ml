type config = {
  v : Checker.Vcassign.t;
  capacity : string -> int;
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

let fits config st =
  Channel.over_capacity ~v:config.v ~capacity:config.capacity st = []

let tables = lazy (Mcheck.Semantics.load_tables ())

let semantics_config config =
  {
    Mcheck.Semantics.nodes = config.nodes;
    addrs = config.addrs;
    ops = [];
    capacity = max_int;
    io_addrs = config.io_addrs;
    lossy = false;
  }

(* Attempt to deliver the head of one FIFO; [None] when the queue is
   empty or the outputs do not fit their channels. *)
let try_deliver config st key =
  let src, dst, cls = key in
  let name = Mcheck.Mstate.name in
  match Mcheck.Mstate.dequeue st key with
  | None -> None
  | Some (msg, st') -> (
      match
        Mcheck.Semantics.deliver ~config:(semantics_config config)
          (Lazy.force tables) st' ~cls ~dst msg
      with
      | Mcheck.Semantics.Broken reason -> raise (Script_error reason)
      | Mcheck.Semantics.Next st'' ->
          if fits config st'' then
            Some
              ( Printf.sprintf "deliver %s %d->%d (%s)" (name msg.m) src dst
                  (name cls),
                st'' )
          else None)

let apply_event config st = function
  | Issue { node; addr; op } -> (
      match
        Mcheck.Semantics.issue_op (Lazy.force tables) st ~node ~addr
          ~op:(Mcheck.Mstate.intern op)
      with
      | Some st' when fits config st' ->
          Printf.sprintf "issue %s node%d addr%d" op node addr, st'
      | Some _ ->
          raise (Script_error (Printf.sprintf "issue %s overflows a channel" op))
      | None -> raise (Script_error (Printf.sprintf "issue %s not enabled" op)))
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
               (Mcheck.Mstate.name m.m) src dst (Mcheck.Mstate.name cls)))
    (Mcheck.Mstate.queue_heads st)

let obs_reg = lazy (Obs.Metrics.registry "sim")

(* One Chrome counter sample per simulator step: Perfetto renders the
   series as a stacked per-virtual-channel occupancy track. *)
let sample_occupancy config st =
  if Obs.Config.on () then
    Obs.Trace.counter "sim.vc_occupancy"
      (List.map
         (fun (vc, n) -> vc, float_of_int n)
         (Channel.occupancy ~v:config.v st))

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
  (* --progress heartbeat: one line per interval with the step count and
     total channel occupancy; a single match when progress is off *)
  let beat () =
    Obs.Runlog.tick (fun () ->
        let in_flight =
          List.fold_left
            (fun acc (_, n) -> acc + n)
            0
            (Channel.occupancy ~v:config.v !st)
        in
        Printf.sprintf "[sim] steps=%d in_flight=%d" !steps in_flight)
  in
  List.iter
    (fun ev ->
      let label, st' = apply_event config !st ev in
      incr steps;
      trace label;
      st := st';
      sample_occupancy config !st;
      beat ())
    script;
  let rec free_run () =
    if !steps >= max_steps then
      ( Deadlock
          {
            steps = !steps;
            occupancy = Channel.occupancy ~v:config.v !st;
            blocked = [ "step budget exhausted (livelock?)" ];
          },
        !st )
    else if Mcheck.Mstate.quiescent !st then Quiescent { steps = !steps }, !st
    else
      let heads = Mcheck.Mstate.queue_heads !st in
      let progressed =
        List.exists
          (fun (key, _) ->
            match try_deliver config !st key with
            | Some (label, st') ->
                incr steps;
                trace label;
                st := st';
                sample_occupancy config !st;
                beat ();
                true
            | None -> false)
          heads
      in
      let reissued =
        if progressed then false
        else
          (* nothing deliverable: let a backed-off processor op re-enter,
             if its request fits its channel *)
          List.exists
            (fun node ->
              List.exists
                (fun addr ->
                  match Mcheck.Semantics.reissue !st ~node ~addr with
                  | Some st' when fits config st' ->
                      incr steps;
                      trace (Printf.sprintf "reissue node%d addr%d" node addr);
                      st := st';
                      sample_occupancy config !st;
                      true
                  | Some _ | None -> false)
                (List.init config.addrs Fun.id))
            (List.init config.nodes Fun.id)
      in
      if progressed || reissued then free_run ()
      else if heads = [] then
        (* pending processor state but nothing in flight: wedged *)
        ( Deadlock
            { steps = !steps; occupancy = []; blocked = [ "no messages in flight" ] },
          !st )
      else
        ( Deadlock
            {
              steps = !steps;
              occupancy = Channel.occupancy ~v:config.v !st;
              blocked = blocked_heads config !st;
            },
          !st )
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
