type t = {
  base : Mcheck.Mstate.t;
  upd_capacity : int;
  upd_used : int;
  feedback : (Mcheck.Mstate.sym * Mcheck.Mstate.msg) list;
  deferred : int;
  retried : int;
}

type gate = Proceed | Bounce | Defer

let retry = Mcheck.Mstate.intern "retry"

let tables = lazy (Mcheck.Semantics.load_tables ())

let ed_rules =
  lazy
    (Mapping.Codegen.rules_of_table ~inputs:Mapping.Extend.input_columns
       ~outputs:Mapping.Extend.output_columns (Mapping.Extend.ed ()))

let mem_only_config =
  { Mcheck.Semantics.nodes = 0; addrs = 0; ops = []; capacity = 0; io_addrs = []; lossy = false }

let make ?(upd_capacity = 1) base =
  { base; upd_capacity; upd_used = 0; feedback = []; deferred = 0; retried = 0 }

let statuses t =
  let dq = if t.upd_used >= t.upd_capacity then "Full" else "NotFull" in
  (* the behavioural simulator already applies channel backpressure, so
     the output queues are never oversubscribed here *)
  [ "qstatus", "NotFull"; "dqstatus", dq ]

let ed_outputs t ~cls msg =
  let binding =
    Mcheck.Semantics.dir_binding mem_only_config t.base ~cls msg @ statuses t
  in
  Mapping.Codegen.eval_rules (Lazy.force ed_rules) binding

let gate t ~cls msg =
  match ed_outputs t ~cls msg with
  | None -> Proceed (* no gating row: fall through to the table semantics *)
  | Some outputs ->
      if List.assoc_opt "fdback" outputs = Some "dfdback" then Defer
      else if
        List.assoc_opt "locmsg" outputs = Some "retry"
        && List.assoc_opt "bdirop" outputs = None
        && cls = Mcheck.Mstate.reqq
        && List.assoc_opt "qstatus" (statuses t) = Some "Full"
      then Bounce
      else Proceed

(* Whether the architectural row writes the directory (and therefore
   occupies an update-queue slot). *)
let writes_directory t ~cls msg =
  let binding = Mcheck.Semantics.dir_binding mem_only_config t.base ~cls msg in
  match
    Mapping.Codegen.eval_rules
      (Mcheck.Semantics.directory_rules (Lazy.force tables))
      binding
  with
  | Some outputs -> List.assoc_opt "dirwr" outputs = Some "yes"
  | None -> false

let apply t ~cls ~dst msg =
  let slot = if dst = Mcheck.Mstate.dir then writes_directory t ~cls msg else false in
  match Mcheck.Semantics.deliver (Lazy.force tables) t.base ~cls ~dst msg with
  | Mcheck.Semantics.Next base ->
      { t with base; upd_used = (t.upd_used + if slot then 1 else 0) }
  | Mcheck.Semantics.Broken reason -> failwith reason

let deliver t ~cls ~dst msg =
  if dst <> Mcheck.Mstate.dir then apply t ~cls ~dst msg
  else
    match gate t ~cls msg with
    | Proceed -> apply t ~cls ~dst msg
    | Bounce ->
        let retry =
          { Mcheck.Mstate.m = retry; src = Mcheck.Mstate.dir; dst = msg.src;
            addr = msg.addr; fresh = true }
        in
        {
          t with
          base = Mcheck.Mstate.enqueue t.base ~cls:Mcheck.Mstate.resp retry;
          retried = t.retried + 1;
        }
    | Defer ->
        { t with feedback = t.feedback @ [ cls, msg ]; deferred = t.deferred + 1 }

let drain_update t = { t with upd_used = max 0 (t.upd_used - 1) }

let replay_feedback t =
  match t.feedback with
  | [] -> t
  | (cls, msg) :: rest ->
      if t.upd_used >= t.upd_capacity then t
      else
        let t = { t with feedback = rest } in
        (* the replay performs the original response's behaviour on its
           original arrival class *)
        apply t ~cls ~dst:Mcheck.Mstate.dir msg

let quiescent t =
  Mcheck.Mstate.quiescent t.base && t.feedback = [] && t.upd_used = 0

let run_to_completion ?(max_steps = 10_000) ?(drain_every = 1) t =
  let rec go steps t =
    if steps > max_steps then failwith "Impl_runner: step budget exhausted"
    else if quiescent t then t
    else
      (* one scheduling round: a delivery if possible; the update engine
         retires a queued update every [drain_every] rounds (a slower
         engine forces more traffic through the feedback path) *)
      let maybe_drain t =
        if steps mod drain_every = 0 then replay_feedback (drain_update t)
        else t
      in
      match Mcheck.Mstate.queue_heads t.base with
      | ((src, dst, cls), msg) :: _ ->
          let t' =
            match Mcheck.Mstate.dequeue t.base (src, dst, cls) with
            | Some (_, base) -> deliver { t with base } ~cls ~dst msg
            | None -> assert false
          in
          go (steps + 1) (maybe_drain t')
      | [] -> go (steps + 1) (replay_feedback (drain_update t))
  in
  go 0 t

let stats t =
  Printf.sprintf "deferred=%d retried=%d upd_used=%d feedback=%d" t.deferred
    t.retried t.upd_used (List.length t.feedback)
