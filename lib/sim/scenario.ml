open Mcheck.Mstate

(* [owners] maps address -> owning node: the directory is set to MESI
   with that single sharer, the owner's cache to M, memory to stale. *)
let make_initial ~nodes ~addrs ~owners =
  let st = initial ~nodes ~addrs in
  List.fold_left
    (fun st (addr, owner) ->
      let st =
        set_addr st addr
          {
            dirst = intern "MESI";
            sharers = 1 lsl owner;
            busy = None;
            mem_fresh = false;
          }
      in
      set_cache st ~node:owner ~addr (intern "M"))
    st owners

let shared_line st ~addr ~sharers =
  let mask = List.fold_left (fun m n -> m lor (1 lsl n)) 0 sharers in
  let st =
    set_addr st addr
      { dirst = intern "SI"; sharers = mask; busy = None; mem_fresh = true }
  in
  List.fold_left (fun st n -> set_cache st ~node:n ~addr (intern "S")) st sharers

let dir = Mcheck.Mstate.dir
let mem = Mcheck.Mstate.mem
let uniform = Runner.uniform_capacity

(* The Figure 4 interleaving.  Address 0 (the paper's A) is owned by node
   1, address 1 (the paper's B) by node 2.  Node 0 wants A exclusively
   while node 1 concurrently writes A back; once A's transaction reaches
   the refetch point, node 2's writeback of B occupies the memory-request
   channel, and memory's ack for it needs the response channel occupied by
   A's ack.  Channel capacities: one slot everywhere, two on the request
   channel (both writebacks plus the readex are requests). *)
let figure4_wedged v =
  let capacity vc = if vc = "VC0" then 2 else 1 in
  let config = Runner.config ~nodes:3 ~addrs:2 ~capacity v in
  let st = make_initial ~nodes:3 ~addrs:2 ~owners:[ 0, 1; 1, 2 ] in
  let script =
    [
      Runner.Issue { node = 1; addr = 0; op = "evictmod" };
      Runner.Issue { node = 0; addr = 0; op = "store" };
      Runner.Deliver { src = 0; dst = dir; cls = "reqq" };
      Runner.Deliver { src = dir; dst = 1; cls = "snp" };
      Runner.Deliver { src = 1; dst = dir; cls = "respq" };
      Runner.Deliver { src = 1; dst = dir; cls = "reqq" };
      Runner.Deliver { src = dir; dst = 1; cls = "resp" };
      Runner.Deliver { src = dir; dst = mem; cls = "memq" };
      Runner.Issue { node = 2; addr = 1; op = "evictmod" };
      Runner.Deliver { src = 2; dst = dir; cls = "reqq" };
    ]
  in
  let trace, log = Runner.collect () in
  let result, final = Runner.run ~script ~trace config st in
  result, log (), final

let figure4 v =
  let result, log, _ = figure4_wedged v in
  result, log

(* Figure 2: node 0 requests exclusive ownership of a line shared by
   nodes 1 and 2; both are invalidated, memory supplies data, the
   directory hands over ownership. *)
let readex_walkthrough v =
  let config = Runner.config ~nodes:3 ~addrs:1 ~capacity:(uniform 4) v in
  let st = initial ~nodes:3 ~addrs:1 in
  let st = shared_line st ~addr:0 ~sharers:[ 1; 2 ] in
  let trace, log = Runner.collect () in
  let result, _ =
    Runner.run
      ~script:[ Runner.Issue { node = 0; addr = 0; op = "store" } ]
      ~trace config st
  in
  result, log ()

(* Randomized soak test: issue random operations and deliver random
   queue heads under finite channels; a correct assignment must always
   drain once the workload stops. *)
let stress ?(seed = 42) ?(rounds = 200) ?(nodes = 3) ?(addrs = 2) v =
  let rng = Random.State.make [| seed |] in
  let config = Runner.config ~nodes ~addrs ~capacity:(uniform 2) v in
  let issued = ref 0 in
  let st = ref (initial ~nodes ~addrs) in
  let ops = Array.map intern [| "load"; "store"; "evictmod"; "evictsh" |] in
  (* a step that is not enabled is dropped (the consumer would stall in
     hardware) *)
  for _ = 1 to rounds do
    if Random.State.bool rng then begin
      let node = Random.State.int rng nodes in
      let addr = Random.State.int rng addrs in
      let op = ops.(Random.State.int rng (Array.length ops)) in
      match Runner.try_issue config !st ~node ~addr ~op with
      | Some (_, st') ->
          incr issued;
          st := st'
      | None -> ()
    end
    else
      match Mcheck.Mstate.queue_heads !st with
      | [] -> ()
      | heads -> (
          let key, _ =
            List.nth heads (Random.State.int rng (List.length heads))
          in
          match Runner.try_deliver config !st key with
          | Some (_, st') -> st := st'
          | None -> ())
  done;
  (* workload over: the system must drain *)
  let result, _ = Runner.run ~max_steps:20_000 config !st in
  result, !issued

(* Two stores racing to the same invalid line: one is served, the other
   retried until the first completes. *)
let contention v =
  let config = Runner.config ~nodes:2 ~addrs:1 ~capacity:(uniform 4) v in
  let st = initial ~nodes:2 ~addrs:1 in
  let trace, log = Runner.collect () in
  let result, _ =
    Runner.run
      ~script:
        [
          Runner.Issue { node = 0; addr = 0; op = "store" };
          Runner.Issue { node = 1; addr = 0; op = "store" };
          (* node 0 wins the race; node 1's request arrives while busy *)
          Runner.Deliver { src = 0; dst = dir; cls = "reqq" };
          Runner.Deliver { src = 1; dst = dir; cls = "reqq" };
        ]
      ~trace config st
  in
  result, log ()
