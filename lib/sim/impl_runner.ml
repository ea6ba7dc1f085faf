type t = {
  base : Mcheck.Mstate.t;
  upd_capacity : int;
  upd_used : int;
  feedback : (Mcheck.Mstate.sym * Mcheck.Mstate.msg) list;
  deferred : int;
  retried : int;
}

let sym = Mcheck.Mstate.intern
let retry = sym "retry" and dfdback = sym "dfdback" and yes = sym "yes"

let qstatus = Array.length Mcheck.Semantics.dir_columns
let dqstatus = qstatus + 1
let fdback = 0 and locmsg = 1 and bdirop = 2 and dirwr = 3

let ed =
  lazy
    (let outputs = [| "fdback"; "locmsg"; "bdirop"; "dirwr" |] in
     let rules =
       Mapping.Codegen.rules_of_table ~inputs:Mapping.Extend.input_columns
         ~outputs:(Array.to_list outputs) (Mapping.Extend.ed ())
     in
     let status c = Mcheck.Dispatch.lits c [| "NotFull"; "Full" |] in
     let inputs =
       Array.append Mcheck.Semantics.dir_columns
         [| status "qstatus"; status "dqstatus" |]
     in
     ("ED", rules, Mcheck.Dispatch.compile ~inputs ~outputs rules))

let make ?(upd_capacity = 1) base =
  { base; upd_capacity; upd_used = 0; feedback = []; deferred = 0; retried = 0 }

(* the behavioural simulator already applies channel backpressure, so
   the output queues are never oversubscribed here *)
let queues_full = false

(* The ED row a delivery to the directory fires under the current queue
   statuses. *)
let ed_row t ~cls msg =
  let _, _, d = Lazy.force ed in
  let codes = Mcheck.Dispatch.binding d in
  Mcheck.Semantics.code_dir_inputs d codes t.base ~cls msg;
  Mcheck.Dispatch.pick d codes qstatus (Bool.to_int queues_full);
  Mcheck.Dispatch.pick d codes dqstatus
    (Bool.to_int (t.upd_used >= t.upd_capacity));
  Mcheck.Dispatch.find d codes

let is (r : Mcheck.Dispatch.rule) slot v = r.out.(slot) = Some v

(* Run the table semantics; a row that writes the directory occupies an
   update-queue slot. *)
let apply t ~cls ~dst ~row msg =
  let slot = match row with Some r -> is r dirwr yes | None -> false in
  match
    Mcheck.Semantics.deliver ~io_addrs:[] (Lazy.force Runner.tables) t.base
      ~cls ~dst msg
  with
  | Mcheck.Semantics.Next base ->
      { t with base; upd_used = (t.upd_used + if slot then 1 else 0) }
  | Mcheck.Semantics.Broken reason -> failwith reason

(* Pop-and-process one message through the gate: a [dfdback] row pushes
   it onto the feedback path, a [retry] to a request on full output
   queues bounces it, and any other row (or none) runs the table
   semantics. *)
let deliver t ~cls ~dst msg =
  if dst <> Mcheck.Mstate.dir then apply t ~cls ~dst ~row:None msg
  else
    match ed_row t ~cls msg with
    | Some r when is r fdback dfdback ->
        { t with feedback = t.feedback @ [ cls, msg ]; deferred = t.deferred + 1 }
    | Some r
      when is r locmsg retry && r.out.(bdirop) = None
           && cls = Mcheck.Mstate.reqq && queues_full ->
        let retry =
          { Mcheck.Mstate.m = retry; src = Mcheck.Mstate.dir; dst = msg.src;
            addr = msg.addr; fresh = true }
        in
        {
          t with
          base = Mcheck.Mstate.enqueue t.base ~cls:Mcheck.Mstate.resp retry;
          retried = t.retried + 1;
        }
    | row -> apply t ~cls ~dst ~row msg

let rec drive t =
  match Mcheck.Mstate.queue_heads t.base with
  | [] -> t
  | (((_, dst, cls) as key), msg) :: _ ->
      let base = Mcheck.Mstate.without_head t.base key in
      drive (deliver { t with base } ~cls ~dst msg)

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
      else
        apply { t with feedback = rest } ~cls ~dst:Mcheck.Mstate.dir
          ~row:(ed_row t ~cls msg) msg

let quiescent t =
  Mcheck.Mstate.quiescent t.base && t.feedback = [] && t.upd_used = 0

let settle t =
  let rec go n t =
    if quiescent t || n > 100 then t
    else go (n + 1) (drive (replay_feedback (drain_update t)))
  in
  go 0 t

let stats t =
  Printf.sprintf "deferred=%d retried=%d upd_used=%d feedback=%d" t.deferred
    t.retried t.upd_used (List.length t.feedback)
