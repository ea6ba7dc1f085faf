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

let ed_rules =
  lazy
    (Mapping.Codegen.rules_of_table ~inputs:Mapping.Extend.input_columns
       ~outputs:Mapping.Extend.output_columns (Mapping.Extend.ed ()))

let make ?(upd_capacity = 1) base =
  { base; upd_capacity; upd_used = 0; feedback = []; deferred = 0; retried = 0 }

let statuses t =
  let dq = if t.upd_used >= t.upd_capacity then "Full" else "NotFull" in
  (* the behavioural simulator already applies channel backpressure, so
     the output queues are never oversubscribed here *)
  [ "qstatus", "NotFull"; "dqstatus", dq ]

(* Classify a delivery by its ED row under the current queue statuses. *)
let gate t ~cls msg =
  let binding = Mcheck.Semantics.dir_binding t.base ~cls msg @ statuses t in
  match Mapping.Codegen.eval_rules (Lazy.force ed_rules) binding with
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
  match
    Mapping.Codegen.eval_rules
      (Mcheck.Semantics.directory_rules (Lazy.force Runner.tables))
      (Mcheck.Semantics.dir_binding t.base ~cls msg)
  with
  | Some outputs -> List.assoc_opt "dirwr" outputs = Some "yes"
  | None -> false

let apply t ~cls ~dst msg =
  let slot = if dst = Mcheck.Mstate.dir then writes_directory t ~cls msg else false in
  match
    Mcheck.Semantics.deliver (Lazy.force Runner.tables) t.base ~cls ~dst msg
  with
  | Mcheck.Semantics.Next base ->
      { t with base; upd_used = (t.upd_used + if slot then 1 else 0) }
  | Mcheck.Semantics.Broken reason -> failwith reason

(* Pop-and-process one message through the gate: [Proceed] runs the
   table semantics, [Defer] pushes the message onto the feedback path,
   [Bounce] emits a retry. *)
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

let rec drive t =
  match Mcheck.Mstate.queue_heads t.base with
  | [] -> t
  | (((_, dst, cls) as key), _) :: _ -> (
      match Mcheck.Mstate.dequeue t.base key with
      | Some (msg, base) -> drive (deliver { t with base } ~cls ~dst msg)
      | None -> assert false)

(* The update engine retires one queued update. *)
let drain_update t = { t with upd_used = max 0 (t.upd_used - 1) }

(* Re-inject the oldest deferred response as its dfdback request; a
   no-op while the update queue is still full.  The replay performs the
   original response's behaviour on its original arrival class. *)
let replay_feedback t =
  match t.feedback with
  | [] -> t
  | (cls, msg) :: rest ->
      if t.upd_used >= t.upd_capacity then t
      else apply { t with feedback = rest } ~cls ~dst:Mcheck.Mstate.dir msg

let settle t =
  let rec go n t =
    if (Mcheck.Mstate.quiescent t.base && t.feedback = []) || n > 100 then t
    else go (n + 1) (drive (replay_feedback (drain_update t)))
  in
  go 0 t

let stats t =
  Printf.sprintf "deferred=%d retried=%d upd_used=%d feedback=%d" t.deferred
    t.retried t.upd_used (List.length t.feedback)
