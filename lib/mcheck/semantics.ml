open Mstate

(* Every table the semantics fires has a fixed binding and action
   layout: the input columns a deliver function writes, in slot order,
   and the output columns it reads.  A binding column either carries a
   state symbol or one of a few literals the semantics chooses by index
   (a role, a presence-vector class, a hit/miss bit); constant columns
   are one-literal columns nobody writes. *)
type layout = {
  inputs : Dispatch.column array;
  outputs : string array;
  named : string array;
      (* the binding the naive scan starts from: every literal column
         at its first literal *)
}

let layout inputs outputs =
  {
    inputs;
    outputs;
    named =
      Array.map
        (fun (c : Dispatch.column) -> if c.lits = [||] then "" else c.lits.(0))
        inputs;
  }

let position name names =
  let rec go i = if String.equal names.(i) name then i else go (i + 1) in
  go 0

let in_slot l name =
  position name (Array.map (fun (c : Dispatch.column) -> c.name) l.inputs)

let out_slot l name = position name l.outputs

module D = struct
  let l =
    layout
      Dispatch.
        [| state "inmsg"; lits "inmsgsrc" [| "local"; "home"; "remote" |];
           lits "inmsgdest" [| "home" |]; state "inmsgres";
           lits "addrspace" [| "mem"; "io" |]; state "dirst";
           lits "dirpv" pv_values; lits "reqpv" [| "out"; "in" |];
           state "bdirst"; lits "bdirpv" pv_values;
           lits "dirlookup" [| "miss"; "hit" |];
           lits "bdirlookup" [| "miss"; "hit" |] |]
      [| "locmsg"; "remmsg"; "memmsg"; "nxtdirst"; "nxtdirpv"; "nxtbdirst";
         "nxtbdirpv"; "bdirop" |]

  let inmsgsrc = in_slot l "inmsgsrc"
  let inmsgres = in_slot l "inmsgres"
  let addrspace = in_slot l "addrspace"
  let dirst = in_slot l "dirst"
  let dirpv = in_slot l "dirpv"
  let reqpv = in_slot l "reqpv"
  let bdirst = in_slot l "bdirst"
  let bdirpv = in_slot l "bdirpv"
  let dirlookup = in_slot l "dirlookup"
  let bdirlookup = in_slot l "bdirlookup"
  let locmsg = out_slot l "locmsg"
  let remmsg = out_slot l "remmsg"
  let memmsg = out_slot l "memmsg"
  let nxtdirst = out_slot l "nxtdirst"
  let nxtdirpv = out_slot l "nxtdirpv"
  let nxtbdirst = out_slot l "nxtbdirst"
  let nxtbdirpv = out_slot l "nxtbdirpv"
  let bdirop = out_slot l "bdirop"
end

(* D's inmsgsrc literals *)
let local = 0 and home = 1 and remote = 2

module C = struct
  let l =
    layout
      Dispatch.
        [| state "inmsg"; lits "inmsgsrc" [| "home" |];
           lits "inmsgdest" [| "remote" |]; lits "inmsgres" [| "snpq" |];
           state "cachest" |]
      [| "respmsg"; "nxtcachest" |]

  let cachest = in_slot l "cachest"
  let respmsg = out_slot l "respmsg"
  let nxtcachest = out_slot l "nxtcachest"
end

module N = struct
  let l =
    layout
      Dispatch.
        [| state "inmsg"; lits "inmsgsrc" [| "home" |];
           lits "inmsgdest" [| "local" |]; lits "inmsgres" [| "respq" |];
           state "pendop" |]
      [| "cachefill"; "ackmsg"; "procresult" |]

  let pendop = in_slot l "pendop"
  let cachefill = out_slot l "cachefill"
  let ackmsg = out_slot l "ackmsg"
  let procresult = out_slot l "procresult"
end

(* M and IO: the memory-queue delivery, with the memory's ECC status or
   the device status as a constant last column *)
module Mem = struct
  let l status ready =
    layout
      Dispatch.
        [| state "inmsg"; lits "inmsgsrc" [| "home" |];
           lits "inmsgdest" [| "home" |]; lits "inmsgres" [| "memq" |];
           lits status [| ready |] |]
      [| "outmsg" |]

  let m = l "eccst" "ok"
  let io = l "devst" "ready"
  let outmsg = 0
end

module Pif = struct
  let l =
    layout Dispatch.[| state "procop"; state "cachest" |] [| "reqmsg"; "pendop" |]

  let cachest = in_slot l "cachest"
  let reqmsg = out_slot l "reqmsg"
  let pendop = out_slot l "pendop"
end

(* A compiled rule list plus the runtime Table.id of the table it came
   from, so every fired rule can be charged to its source row in the
   transition-coverage bitmaps.  [coded] is the compiled dispatch
   {!index_tables} adds; without it the ruleset dispatches through the
   naive string scan of {!Mapping.Codegen} the reference engine keeps. *)
type ruleset = {
  rules : Mapping.Codegen.rule list;
  cov : int;
  layout : layout;
  coded : Dispatch.t option;
}

type tables = {
  d_rules : ruleset;
  c_rules : ruleset;
  n_rules : ruleset;
  pif_rules : ruleset;
  m_rules : ruleset;
  io_rules : ruleset;
}

let ruleset_of_spec layout spec t =
  let rules =
    Mapping.Codegen.rules_of_table
      ~inputs:(Protocol.Ctrl_spec.input_columns spec)
      ~outputs:(Protocol.Ctrl_spec.output_columns spec)
      t
  in
  Obs.Coverage.register ~id:(Relalg.Table.id t)
    ~name:(Relalg.Table.name t)
    ~rows:(Relalg.Table.cardinality t);
  { rules; cov = Relalg.Table.id t; layout; coded = None }

let rules_of layout (c : Protocol.controller) =
  let spec = c.Protocol.spec in
  ruleset_of_spec layout spec (Protocol.Ctrl_spec.table spec)

let named_rulesets t =
  [ "D", t.d_rules; "C", t.c_rules; "N", t.n_rules; "PIF", t.pif_rules;
    "M", t.m_rules; "IO", t.io_rules ]

(* Every symbolic string a reachable state can contain comes out of a
   controller-table cell: harvest them per column, so the bit-packer can
   seed its per-field dictionaries up front. *)
let pack_vocab t =
  let tbl : (string, string list) Hashtbl.t = Hashtbl.create 32 in
  let record (col, v) =
    let prev = Option.value (Hashtbl.find_opt tbl col) ~default:[] in
    if not (List.mem v prev) then Hashtbl.replace tbl col (v :: prev)
  in
  List.iter
    (fun (_, rs) ->
      List.iter
        (fun (r : Mapping.Codegen.rule) ->
          List.iter record r.guard;
          List.iter record r.action)
        rs.rules)
    (named_rulesets t);
  Hashtbl.fold
    (fun col vs acc -> (col, List.sort compare vs) :: acc)
    tbl []
  |> List.sort compare

(* ---------------------------- backoff forms ---------------------------

   A retried processor op parks as [backoff:<op>] until it reissues.
   Both directions are symbol-indexed arrays, filled on the main domain
   when the tables load (every [pendop] value of every table), so
   delivering a retry and reissuing it never touch a string.  They only
   grow by whole-array replacement, like the symbol table itself. *)

let backoff_sym : int array Atomic.t = Atomic.make [||]  (* op -> backoff:op *)
let backoff_op : int array Atomic.t = Atomic.make [||]  (* backoff:op -> op *)

let lookup arr i =
  let a = Atomic.get arr in
  if i >= 0 && i < Array.length a then Array.unsafe_get a i else -1

let store arr i v =
  let a = Atomic.get arr in
  let a =
    if i < Array.length a then Array.copy a
    else
      Array.init (max 64 (2 * (i + 1))) (fun j ->
          if j < Array.length a then a.(j) else -1)
  in
  a.(i) <- v;
  Atomic.set arr a

let register_pendop op =
  let o = Mstate.intern op and b = Mstate.intern ("backoff:" ^ op) in
  if lookup backoff_sym o <> b then begin
    store backoff_sym o b;
    store backoff_op b o
  end;
  b

(* the backoff form of a pending op; an op no table names (a
   hand-built state) registers here, on the main domain only *)
let backoff op =
  match lookup backoff_sym op with
  | -1 -> register_pendop (Mstate.name op)
  | b -> b

let backoff_of = function
  | Some p -> (match lookup backoff_op p with -1 -> None | o -> Some o)
  | None -> None

let load_tables_with ?dir () =
  let d_rules =
    match dir with
    | None -> rules_of D.l Protocol.directory
    | Some spec ->
        ruleset_of_spec D.l spec (fst (Protocol.Ctrl_spec.generate spec))
  in
  let t =
    {
      d_rules;
      c_rules = rules_of C.l Protocol.cache;
      n_rules = rules_of N.l Protocol.node;
      pif_rules = rules_of Pif.l Protocol.pif;
      m_rules = rules_of Mem.m Protocol.memory;
      io_rules = rules_of Mem.io Protocol.io;
    }
  in
  (* intern every cell value, so a search meets no string the symbol
     table lacks *)
  List.iter
    (fun (col, vs) ->
      List.iter
        (fun v ->
          ignore (Mstate.intern v : Mstate.sym);
          if col = "pendop" then ignore (register_pendop v : Mstate.sym))
        vs)
    (pack_vocab t);
  t

let load_tables () = load_tables_with ()

let compile rs =
  {
    rs with
    coded =
      Some
        (Dispatch.compile ~inputs:rs.layout.inputs ~outputs:rs.layout.outputs
           rs.rules);
  }

let index_tables t =
  {
    d_rules = compile t.d_rules;
    c_rules = compile t.c_rules;
    n_rules = compile t.n_rules;
    pif_rules = compile t.pif_rules;
    m_rules = compile t.m_rules;
    io_rules = compile t.io_rules;
  }

let dispatches t =
  List.filter_map
    (fun (name, rs) -> Option.map (fun d -> (name, rs.rules, d)) rs.coded)
    (named_rulesets t)

type config = {
  nodes : int;
  addrs : int;
  ops : string list;
  capacity : int;
  io_addrs : int list;  (* addresses living in the uncached I/O space *)
  lossy : bool;  (* inter-node links may drop messages (LK crcdrop) *)
}
type outcome = Next of Mstate.t | Broken of string

(* A binding under construction, in the representation its ruleset
   dispatches on: codes for a compiled ruleset, the strings the naive
   scan matches for a reference one.  Deliver functions write
   it slot by slot and never see which. *)
type binding =
  | Coded of Dispatch.t * int array
  | Named of layout * string array

let binding rs =
  match rs.coded with
  | Some d -> Coded (d, Dispatch.binding d)
  | None -> Named (rs.layout, Array.copy rs.layout.named)

(* a state symbol *)
let set b slot v =
  match b with
  | Coded (d, codes) -> Dispatch.set d codes slot v
  | Named (_, strs) -> strs.(slot) <- Mstate.name v

(* literal [i] of the slot's column *)
let pick b slot i =
  match b with
  | Coded (d, codes) -> Dispatch.pick d codes slot i
  | Named (l, strs) -> strs.(slot) <- l.inputs.(slot).lits.(i)

let pairs l strs =
  Array.to_list
    (Array.mapi (fun i (c : Dispatch.column) -> (c.name, strs.(i))) l.inputs)

(* The single choke point where controller-table rows fire: record the
   matched row in the coverage bitmap (a no-op branch when coverage is
   off — safe from parallel workers, see Obs.Coverage) and return the
   row's action by output slot. *)
let fire rs row out =
  Obs.Coverage.record ~id:rs.cov ~row;
  (* same (table id, row) attribution as coverage, so flight-recorded
     firings decode through the identical registry *)
  Obs.Flightrec.record ~tag:Obs.Flightrec.tag_fire ~a:rs.cov ~b:row ~c:0;
  Some out

let eval rs = function
  | Coded (d, codes) -> (
      match Dispatch.find d codes with
      | None -> None
      | Some r -> fire rs r.row r.out)
  | Named (l, strs) -> (
      match Mapping.Codegen.eval_rule rs.rules (pairs l strs) with
      | None -> None
      | Some r ->
          (* the oracle path runs on the main domain, where laying the
             action out as symbols is a lookup of interned strings *)
          fire rs r.row (Dispatch.outputs l.outputs r.Mapping.Codegen.action))

let bit n = 1 lsl n

(* The symbols the semantics writes or compares programmatically,
   interned once when the module initialises (on the main domain). *)
let sym = Mstate.intern
let s_I = sym "I" and s_S = sym "S" and s_E = sym "E" and s_M = sym "M"
let s_none = sym "none"

(* message names *)
let m_idone = sym "idone" and m_sack = sym "sack" and m_snack = sym "snack"
let m_sdata = sym "sdata" and m_swbdata = sym "swbdata"
let m_data = sym "data" and m_datax = sym "datax" and m_mdata = sym "mdata"
let m_wb = sym "wb" and m_mwrite = sym "mwrite" and m_mupdate = sym "mupdate"
let m_mioread = sym "mioread" and m_miowrite = sym "miowrite"
let m_sinv = sym "sinv"

(* action values *)
let a_drepl = sym "drepl" and a_repl = sym "repl" and a_inc = sym "inc"
let a_dec = sym "dec"
let a_alloc = sym "alloc" and a_update = sym "update"
let a_dealloc = sym "dealloc"
let a_shared = sym "shared" and a_excl = sym "excl"
let a_done = sym "done" and a_fault = sym "fault"
let a_retrylater = sym "retrylater"

(* processor ops *)
let op_evictmod = sym "evictmod" and op_evictsh = sym "evictsh"
let op_ioload = sym "ioload" and op_iostore = sym "iostore"
let op_iormwop = sym "iormwop"

let data_bearing m =
  m = m_data || m = m_datax || m = m_mdata || m = m_sdata || m = m_swbdata
  || m = m_wb || m = m_mwrite || m = m_mupdate

let snoop_reply m =
  m = m_idone || m = m_sack || m = m_snack || m = m_sdata || m = m_swbdata

(* The request a node reissues after a retry, from its pending op. *)
let reissue_requests =
  List.map
    (fun (op, req) ->
      ignore (register_pendop op : Mstate.sym);
      (sym op, sym req))
    [ "read", "read"; "ifetch", "fetch"; "write", "readex"; "rmw", "swap";
      "upgrade", "upgrade"; "wback", "wb" ]

let request_of_pendop op =
  match List.find_opt (fun (o, _) -> o = op) reissue_requests with
  | Some (_, req) -> Some req
  | None -> None

let is out slot v = match out.(slot) with Some x -> x = v | None -> false

(* Slot 0 of every layout is the dispatch discriminator: the input
   message of the delivery tables, the processor op of PIF. *)
let inmsg = 0
let procop = 0

(* ------------------------------------------------------------------ *)
(* Directory                                                           *)
(* ------------------------------------------------------------------ *)

let src_role ~cls msg =
  if cls = reqq || cls = ackq then local
  else if msg.src = mem then home
  else remote

let dir_inputs io_addrs st ~cls msg b =
  let a = addr_state st msg.addr in
  set b inmsg msg.m;
  pick b D.inmsgsrc (src_role ~cls msg);
  set b D.inmsgres cls;
  pick b D.addrspace (Bool.to_int (List.mem msg.addr io_addrs));
  set b D.dirst a.dirst;
  pick b D.dirpv (pv_index a.sharers);
  pick b D.reqpv (Bool.to_int (a.sharers land bit msg.src <> 0));
  set b D.bdirst (match a.busy with Some b -> b.bst | None -> s_I);
  pick b D.bdirpv (match a.busy with Some b -> pv_index b.acks | None -> 0);
  pick b D.dirlookup (Bool.to_int (a.dirst <> s_I));
  pick b D.bdirlookup (Bool.to_int (a.busy <> None))

let dir_columns = D.l.inputs

let code_dir_inputs d codes st ~cls msg =
  dir_inputs [] st ~cls msg (Coded (d, codes))

let deliver_dir tables io_addrs st cls msg =
  let a = addr_state st msg.addr in
  let b = binding tables.d_rules in
  dir_inputs io_addrs st ~cls msg b;
  match eval tables.d_rules b with
  | None ->
      Broken
        (Printf.sprintf "D has no row for %s (%s) dirst=%s bdirst=%s"
           (name msg.m)
           D.l.inputs.(D.inmsgsrc).lits.(src_role ~cls msg)
           (name a.dirst)
           (match a.busy with Some b -> name b.bst | None -> "I"))
  | Some out ->
      let requester =
        if cls = reqq then msg.src
        else match a.busy with Some b -> b.requester | None -> msg.src
      in
      (* freshness of any data this row forwards to the requester *)
      let incoming_fresh =
        if data_bearing msg.m then Some msg.fresh else None
      in
      let forwarded_fresh =
        match incoming_fresh, a.busy with
        | Some f, _ -> f
        | None, Some b -> b.data_fresh
        | None, None -> true
      in
      (* snoop targets, before any state update *)
      let drepl = is out D.nxtbdirpv a_drepl in
      let targets =
        match out.(D.remmsg) with
        | None -> 0
        | Some r when r = m_sinv ->
            if drepl then a.sharers land lnot (bit requester) else a.sharers
        | Some _ -> a.sharers
      in
      let st = ref st in
      (match out.(D.locmsg) with
      | Some locmsg ->
          st :=
            enqueue !st ~cls:resp
              {
                m = locmsg; src = dir; dst = requester; addr = msg.addr;
                fresh =
                  (if data_bearing locmsg then forwarded_fresh else true);
              }
      | None -> ());
      (match out.(D.remmsg) with
      | Some remmsg ->
          iter_members
            (fun n ->
              st :=
                enqueue !st ~cls:snp
                  { m = remmsg; src = dir; dst = n; addr = msg.addr;
                    fresh = true })
            targets
      | None -> ());
      (match out.(D.memmsg) with
      | Some memmsg ->
          st :=
            enqueue !st ~cls:memq
              {
                m = memmsg; src = dir; dst = mem; addr = msg.addr;
                fresh =
                  (if memmsg = m_mwrite || memmsg = m_mupdate then
                     forwarded_fresh
                   else true);
              }
      | None -> ());
      (* busy-directory operation *)
      let base = match a.busy with Some b -> b.snapshot | None -> a.sharers in
      let busy' =
        match out.(D.bdirop) with
        | Some op when op = a_alloc ->
            Some
              {
                bst = Option.value out.(D.nxtbdirst) ~default:s_I;
                requester;
                acks = targets;
                snapshot =
                  (if drepl then a.sharers land lnot (bit requester)
                   else a.sharers);
                data_fresh = forwarded_fresh;
              }
        | Some op when op = a_update ->
            Option.map
              (fun b ->
                let acks =
                  if cls = respq && snoop_reply msg.m then
                    b.acks land lnot (bit msg.src)
                  else b.acks
                in
                {
                  b with
                  bst = Option.value out.(D.nxtbdirst) ~default:b.bst;
                  acks;
                  data_fresh = forwarded_fresh;
                })
              a.busy
        | Some op when op = a_dealloc -> None
        | _ -> a.busy
      in
      (* directory state and concrete presence-vector operation *)
      let dirst' = Option.value out.(D.nxtdirst) ~default:a.dirst in
      let sharers' =
        match out.(D.nxtdirpv) with
        | Some pv when pv = a_repl -> bit requester
        | Some pv when pv = a_inc -> base lor bit requester
        | Some pv when pv = a_dec ->
            let actor = if cls = reqq then msg.src else requester in
            a.sharers land lnot (bit actor)
        | Some pv when pv = a_drepl -> base land lnot (bit requester)
        | _ -> a.sharers
      in
      let sharers' = if is out D.nxtdirst s_I then 0 else sharers' in
      st :=
        set_addr !st msg.addr
          { a with dirst = dirst'; sharers = sharers'; busy = busy' };
      Next !st

(* ------------------------------------------------------------------ *)
(* Node: snoops and responses                                          *)
(* ------------------------------------------------------------------ *)

let deliver_snoop tables st node msg =
  let cachest = cache st ~node ~addr:msg.addr in
  let b = binding tables.c_rules in
  set b inmsg msg.m;
  set b C.cachest cachest;
  match eval tables.c_rules b with
  | None ->
      Broken
        (Printf.sprintf "C has no row for %s at node %d in %s" (name msg.m)
           node (name cachest))
  | Some out ->
      let st = ref st in
      (match out.(C.respmsg) with
      | Some resp ->
          st :=
            enqueue !st ~cls:respq
              { m = resp; src = node; dst = dir; addr = msg.addr; fresh = true }
      | None -> ());
      (match out.(C.nxtcachest) with
      | Some c -> st := set_cache !st ~node ~addr:msg.addr c
      | None -> ());
      Next !st

let deliver_response tables st node msg =
  let pendop = pending st ~node ~addr:msg.addr in
  let b = binding tables.n_rules in
  set b inmsg msg.m;
  set b N.pendop (Option.value pendop ~default:s_none);
  match eval tables.n_rules b with
  | None ->
      Broken
        (Printf.sprintf "N has no row for %s at node %d pending %s"
           (name msg.m) node
           (match pendop with Some p -> name p | None -> "none"))
  | Some out ->
      if data_bearing msg.m && not msg.fresh then
        Broken
          (Printf.sprintf "stale data: %s delivered to node %d for addr %d"
             (name msg.m) node msg.addr)
      else begin
        let st = ref st in
        (match out.(N.cachefill) with
        | Some f when f = a_shared -> st := set_cache !st ~node ~addr:msg.addr s_S
        | Some f when f = a_excl ->
            st := set_cache !st ~node ~addr:msg.addr s_M;
            (* the new owner will write: memory is no longer current *)
            let a = addr_state !st msg.addr in
            st := set_addr !st msg.addr { a with mem_fresh = false }
        | _ -> ());
        (match out.(N.ackmsg) with
        | Some ackmsg ->
            st :=
              enqueue !st ~cls:ackq
                { m = ackmsg; src = node; dst = dir; addr = msg.addr;
                  fresh = true }
        | None -> ());
        (match out.(N.procresult) with
        | Some r when r = a_done || r = a_fault ->
            st := set_pending !st ~node ~addr:msg.addr None
        | Some r when r = a_retrylater -> (
            (* the node controller emits nothing: the processor interface
               reissues later, as a separate (backpressurable) step --
               consuming a retry must never need request-channel space *)
            match pendop with
            | Some op ->
                st := set_pending !st ~node ~addr:msg.addr (Some (backoff op))
            | None -> ())
        | _ -> ());
        Next !st
      end

(* ------------------------------------------------------------------ *)
(* Memory                                                              *)
(* ------------------------------------------------------------------ *)

let deliver_mem tables st msg =
  let io_request = msg.m = m_mioread || msg.m = m_miowrite in
  let rs = if io_request then tables.io_rules else tables.m_rules in
  let b = binding rs in
  set b inmsg msg.m;
  match eval rs b with
  | None -> Broken (Printf.sprintf "M/IO has no row for %s" (name msg.m))
  | Some out ->
      let a = addr_state st msg.addr in
      let st =
        if msg.m = m_mwrite || msg.m = m_mupdate then
          set_addr st msg.addr { a with mem_fresh = msg.fresh }
        else st
      in
      let a = addr_state st msg.addr in
      let st =
        match out.(Mem.outmsg) with
        | Some resp ->
            enqueue st ~cls:respq
              {
                m = resp; src = mem; dst = dir; addr = msg.addr;
                fresh = (if resp = m_mdata then a.mem_fresh else true);
              }
        | None -> st
      in
      Next st

(* ------------------------------------------------------------------ *)
(* Processor issue                                                     *)
(* ------------------------------------------------------------------ *)

let issue tables st node addr op =
  let b = binding tables.pif_rules in
  set b procop op;
  set b Pif.cachest (cache st ~node ~addr);
  match eval tables.pif_rules b with
  | None -> None
  | Some out ->
      (match out.(Pif.reqmsg) with
      | None -> None (* a pure cache hit changes nothing: skip *)
      | Some req ->
          let st =
            enqueue st ~cls:reqq
              { m = req; src = node; dst = dir; addr; fresh = true }
          in
          let st =
            match out.(Pif.pendop) with
            | Some p -> set_pending st ~node ~addr (Some p)
            | None -> st
          in
          (* evictions drop the line from the cache as they issue *)
          let st =
            if op = op_evictmod || op = op_evictsh then
              set_cache st ~node ~addr s_I
            else st
          in
          Some st)

(* A backed-off operation re-enters the network as a fresh request. *)
let reissue st ~node ~addr =
  match backoff_of (pending st ~node ~addr) with
  | None -> None
  | Some op -> (
      match request_of_pendop op with
      | None -> None
      | Some req ->
          let st =
            enqueue st ~cls:reqq
              { m = req; src = node; dst = dir; addr; fresh = true }
          in
          Some (set_pending st ~node ~addr (Some op)))

(* ------------------------------------------------------------------ *)
(* Successor relation and structural checks                            *)
(* ------------------------------------------------------------------ *)

let rec fits capacity = function
  | [] -> true
  | (_, q) :: rest -> List.compare_length_with q capacity <= 0 && fits capacity rest

let within_capacity config st = fits config.capacity st.Mstate.queues

(* [config.ops] as symbols, resolved read-only ({!Mstate.find}: an op
   no table names cannot fire, so it is dropped) and memoised on the
   list's physical identity, so a search resolves its ops once, not
   per state.  The slot holds one immutable pair: a racing miss merely
   resolves again. *)
let ops_memo : (string list * Mstate.sym list) Atomic.t = Atomic.make ([], [])

let op_syms ops =
  let ops', syms = Atomic.get ops_memo in
  if ops' == ops then syms
  else begin
    let syms = List.filter_map Mstate.find ops in
    Atomic.set ops_memo (ops, syms);
    syms
  end

let io_op op = op = op_ioload || op = op_iostore || op = op_iormwop

(* The walks below cons each enabled transition onto [acc], so
   [successors] reverses once.  Each is a top-level recursion: a local
   closure would be allocated per state.  A label is rendered only when
   [labels] is set. *)

let rec issues tables config st ~node ~addr ~is_io labels acc = function
  | [] -> acc
  | op :: ops ->
      let acc =
        if io_op op <> is_io then acc
        else
          match issue tables st node addr op with
          | Some st' when within_capacity config st' ->
              let label =
                if labels then
                  Printf.sprintf "issue %s node%d addr%d" (name op) node addr
                else ""
              in
              (label, Next st') :: acc
          | Some _ | None -> acc
      in
      issues tables config st ~node ~addr ~is_io labels acc ops

let deliver ~io_addrs tables st ~cls ~dst msg =
  if dst = dir then deliver_dir tables io_addrs st cls msg
  else if dst = mem then deliver_mem tables st msg
  else if cls = snp then deliver_snoop tables st dst msg
  else deliver_response tables st dst msg

let rec deliveries tables config st labels acc = function
  | [] -> acc
  | ((((_, dst, cls) as k), q) : _ * msg list) :: rest ->
      let acc =
        match q with
        | [] -> acc
        | msg :: _ -> (
            let st' = without_head st k in
            match deliver ~io_addrs:config.io_addrs tables st' ~cls ~dst msg with
            | Next s when not (within_capacity config s) ->
                acc (* backpressure: the consumer stalls on a full queue *)
            | outcome ->
                let label =
                  if labels then
                    Printf.sprintf "deliver %s %d->%d (%s) addr%d" (name msg.m)
                      msg.src dst (name cls) msg.addr
                  else ""
                in
                (label, outcome) :: acc)
      in
      deliveries tables config st labels acc rest

(* a faulty link silently drops an inter-node message (the link
   controller's crcdrop row); intra-node and reserved resources (memq,
   ackq) are not links *)
let rec drops st labels acc = function
  | [] -> acc
  | ((((src, dst, cls) as k), msg :: _) : _ * msg list) :: rest
    when cls = reqq || cls = respq || cls = snp || cls = resp ->
      let label =
        if labels then
          Printf.sprintf "DROP %s %d->%d (%s) addr%d" (name msg.m) src dst
            (name cls) msg.addr
        else ""
      in
      drops st labels ((label, Next (without_head st k)) :: acc) rest
  | _ :: rest -> drops st labels acc rest

let successors ?(labels = true) tables config st =
  (* Label rendering is a real fraction of the per-state cost (several
     Printf.sprintf per expansion).  The boxed reference engine needs
     the labels — it stores one per visited state for counterexample
     traces — but the packed engines reconstruct traces by sequential
     replay and pass [~labels:false] to skip the rendering entirely. *)
  let ops = op_syms config.ops in
  let acc = ref [] in
  for node = 0 to config.nodes - 1 do
    for addr = 0 to config.addrs - 1 do
      match reissue st ~node ~addr with
      | Some st' when within_capacity config st' ->
          let label =
            if labels then Printf.sprintf "reissue node%d addr%d" node addr
            else ""
          in
          acc := (label, Next st') :: !acc
      | Some _ | None -> ()
    done
  done;
  for node = 0 to config.nodes - 1 do
    for addr = 0 to config.addrs - 1 do
      if Option.is_none (pending st ~node ~addr) then
        acc :=
          issues tables config st ~node ~addr
            ~is_io:(List.mem addr config.io_addrs)
            labels !acc ops
    done
  done;
  acc := deliveries tables config st labels !acc st.queues;
  if config.lossy then acc := drops st labels !acc st.queues;
  List.rev !acc

let issue_op tables st ~node ~addr ~op = issue tables st node addr op

(* Whether any in-flight message concerns [addr]. *)
let rec addr_in_queue addr = function
  | [] -> false
  | m :: q -> m.addr = addr || addr_in_queue addr q

let rec addr_in_flight addr = function
  | [] -> false
  | (_, q) :: rest -> addr_in_queue addr q || addr_in_flight addr rest

(* Whether some node holds a backed-off op for [addr] that could
   regenerate traffic. *)
let rec backed_off st ~addr node nodes =
  node < nodes
  && ((match pending st ~node ~addr with
      | Some p -> lookup backoff_op p <> -1
      | None -> false)
     || backed_off st ~addr (node + 1) nodes)

(* One pass over the addresses and, per address, over the nodes'
   caches; a state without violations allocates nothing.  The messages
   come in address order, each address's in the order multiple owners,
   owner with sharers, orphaned, cached under invalid — the first
   becomes the verdict detail. *)
let rec violations config st addr acc = function
  | [] -> List.rev acc
  | a :: rest ->
      let owners = ref 0 and sharers = ref 0 and cached = ref false in
      for node = 0 to config.nodes - 1 do
        let c = cache st ~node ~addr in
        if c = s_M || c = s_E then incr owners
        else if c = s_S then incr sharers;
        if c <> s_I then cached := true
      done;
      let busy = Option.is_some a.busy in
      let acc =
        if !owners > 1 then
          Printf.sprintf "addr %d: multiple owners" addr :: acc
        else acc
      in
      let acc =
        if !owners > 0 && !sharers > 0 then
          Printf.sprintf "addr %d: owner coexists with sharers" addr :: acc
        else acc
      in
      let acc =
        (* a busy transaction with nothing in flight for its address
           and no backed-off request that could regenerate traffic can
           never complete: the protocol-level consequence of a lost
           message *)
        if
          busy
          && (not (addr_in_flight addr st.queues))
          && not (backed_off st ~addr 0 config.nodes)
        then Printf.sprintf "addr %d: orphaned busy transaction" addr :: acc
        else acc
      in
      let acc =
        (* only meaningful when nothing is in flight for this address *)
        if
          a.dirst = s_I && (not busy) && !cached
          && not (addr_in_flight addr st.queues)
        then
          Printf.sprintf "addr %d: cached under invalid directory" addr :: acc
        else acc
      in
      violations config st (addr + 1) acc rest

let state_violations config st = violations config st 0 [] st.addrs
