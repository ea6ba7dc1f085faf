open Relalg

type check = Sql of string | Native of (Database.t -> Table.t)

type t = {
  id : string;
  description : string;
  controller : string;
  check : check;
}

type result = { invariant : t; passed : bool; violations : Table.t }

let sql id controller description q =
  { id; description; controller; check = Sql q }

let native id controller description f =
  { id; description; controller; check = Native f }

let violation_rows rows =
  Table.of_rows ~name:"violations" (Schema.of_list [ "witness" ])
    (List.map (fun w -> [| Value.str w |]) rows)

(* ------------------------------------------------------------------ *)
(* Native checks                                                       *)
(* ------------------------------------------------------------------ *)

(* A controller table must be a function of its inputs: no two rows may
   agree on every input column yet disagree on an output.  Runs entirely
   in code space over each controller's table as found in [db]: within
   one table, cells are equal iff their dictionary codes are, so both the
   input-key grouping and the full-row comparison are integer work; a
   key is only decoded to report a violation. *)
let determinism_check db =
  let bad = ref [] in
  List.iter
    (fun (c : Protocol.controller) ->
      let name = Protocol.Ctrl_spec.name c.Protocol.spec in
      let tbl = Database.find db name in
      let ins = Protocol.Ctrl_spec.input_columns c.Protocol.spec in
      let schema = Table.schema tbl in
      let all = Array.init (Table.arity tbl) (Table.codes tbl) in
      let key_cols =
        Array.of_list
          (List.map (fun col -> all.(Schema.index schema col)) ins)
      in
      let same cols a b = Array.for_all (fun cs -> cs.(a) = cs.(b)) cols in
      let n = Table.cardinality tbl in
      (* open addressing over row indices: each slot holds the first
         row of one input key, probed by a hash of the key's codes *)
      let rec pow2 c = if c >= 2 * n then c else pow2 (2 * c) in
      let mask = pow2 16 - 1 in
      let firsts = Array.make (mask + 1) (-1) in
      let hash i =
        let h =
          Array.fold_left (fun h cs -> (h * 1000003) + cs.(i)) 0 key_cols
        in
        (h lxor (h lsr 17)) land mask
      in
      for i = 0 to n - 1 do
        let rec slot s =
          let i0 = firsts.(s) in
          if i0 < 0 || same key_cols i0 i then s
          else slot ((s + 1) land mask)
        in
        let s = slot (hash i) in
        let i0 = firsts.(s) in
        if i0 < 0 then firsts.(s) <- i
        else if not (same all i0 i) then
          bad :=
            Printf.sprintf "%s: duplicate inputs %s" name
              (Format.asprintf "%a" Row.pp
                 (Table.get (Table.project ins tbl) i))
            :: !bad
      done)
    Protocol.controllers;
  violation_rows (List.rev !bad)

(* Distinct strings of a column, straight off the dictionary: mark the
   codes that occur, decode each marked code once. *)
let distinct_values tbl col =
  let j = Schema.index (Table.schema tbl) col in
  let dict = Table.dict tbl j and codes = Table.codes tbl j in
  let present = Array.make (max 1 (Dict.size dict)) false in
  for i = 0 to Table.cardinality tbl - 1 do
    present.(codes.(i)) <- true
  done;
  let acc = ref [] in
  Array.iteri
    (fun c p ->
      if p then
        match Dict.value dict c with
        | Value.Str s -> acc := s :: !acc
        | _ -> ())
    present;
  List.sort_uniq String.compare !acc

(* Every snoop response a cache can emit (in reply to a snoop the
   directory actually sends) must be handled by some D response row. *)
let snoop_coverage_check db =
  let d = Database.find db "D" and c = Database.find db "C" in
  let sent = distinct_values d "remmsg" in
  let handled = distinct_values d "inmsg" in
  let schema_c = Table.schema c in
  (* membership of each dictionary entry is decided once per code; the
     row scan is then two array reads and two boolean lookups *)
  let ji = Schema.index schema_c "inmsg"
  and jr = Schema.index schema_c "respmsg" in
  let di = Table.dict c ji and dr = Table.dict c jr in
  let in_set d values =
    Array.init (Dict.size d) (fun code ->
        match Dict.value d code with
        | Value.Str s -> List.mem s values
        | _ -> false)
  in
  let snoop_sent = in_set di sent and resp_handled = in_set dr handled in
  let ci = Table.codes c ji and cr = Table.codes c jr in
  let bad = ref [] in
  for i = 0 to Table.cardinality c - 1 do
    if snoop_sent.(ci.(i)) && not resp_handled.(cr.(i)) then
      match (Dict.value di ci.(i), Dict.value dr cr.(i)) with
      | Value.Str snoop, Value.Str resp ->
          bad :=
            Printf.sprintf "C answers %s with unhandled %s" snoop resp :: !bad
      | _ -> ()
  done;
  violation_rows (List.sort_uniq String.compare !bad)

(* Every request the processor interface can issue must have at least one
   serving row and one retry row in D. *)
let request_coverage_check db =
  let d = Database.find db "D" and pif = Database.find db "PIF" in
  let issued = distinct_values pif "reqmsg" in
  let served =
    distinct_values
      (Planner.select ~keep:[ "inmsg" ] (Expr.eq "bdirlookup" "miss") d)
      "inmsg"
  in
  let retried =
    distinct_values
      (Planner.select ~keep:[ "inmsg" ] (Expr.eq "locmsg" "retry") d)
      "inmsg"
  in
  let bad =
    List.concat_map
      (fun m ->
        (if List.mem m served then []
         else [ Printf.sprintf "no serving row in D for %s" m ])
        @
        if
          List.mem m retried
          || List.mem m [ "repl"; "racevict" ] (* droppable hints *)
        then []
        else [ Printf.sprintf "no retry row in D for %s" m ])
      issued
  in
  violation_rows bad

(* Every response the directory can send to the requester must be handled
   by the node controller. *)
let local_response_coverage_check db =
  let d = Database.find db "D" and n = Database.find db "N" in
  let sent = distinct_values d "locmsg" in
  let handled = distinct_values n "inmsg" in
  violation_rows
    (List.filter_map
       (fun m ->
         if List.mem m handled then None
         else Some (Printf.sprintf "N does not handle %s" m))
       sent)

let busy_family name =
  match String.split_on_char '-' name with
  | "Busy" :: txn :: _ -> Some txn
  | _ -> None

(* Busy-directory updates stay within one transaction family.  Code
   space: whether an op is [update] and which family a state belongs to
   are decided once per dictionary entry, so the row scan is three array
   reads and two table lookups. *)
let busy_family_check db =
  let d = Database.find db "D" in
  (* a column's codes, and [f] applied to each of its dictionary entries *)
  let column c f =
    let j = Schema.index (Table.schema d) c in
    let dict = Table.dict d j in
    ( Table.codes d j,
      Array.init (Dict.size dict) (fun code -> f (Dict.value dict code)) )
  in
  let family = function
    | Value.Str s -> Option.map (fun f -> (f, s)) (busy_family s)
    | _ -> None
  in
  let ops, update =
    column "bdirop" (function Value.Str "update" -> true | _ -> false)
  in
  let froms, from_family = column "bdirst" family in
  let tos, to_family = column "nxtbdirst" family in
  let bad = ref [] in
  for i = 0 to Table.cardinality d - 1 do
    if update.(ops.(i)) then
      match (from_family.(froms.(i)), to_family.(tos.(i))) with
      | Some (f1, from_), Some (f2, to_) when f1 <> f2 ->
          bad :=
            Printf.sprintf "update %s -> %s crosses families" from_ to_ :: !bad
      | _ -> ()
  done;
  violation_rows (List.rev !bad)

(* Every busy family that is allocated is eventually deallocated and vice
   versa (otherwise the busy directory leaks or a dealloc is dead code). *)
let busy_lifecycle_check db =
  let d = Database.find db "D" in
  let families op col =
    List.sort_uniq compare
      (List.filter_map busy_family
         (distinct_values
            (Planner.select ~keep:[ col ] (Expr.eq "bdirop" op) d)
            col))
  in
  let allocated = families "alloc" "nxtbdirst" in
  let deallocated = families "dealloc" "bdirst" in
  let missing tag l1 l2 =
    List.filter_map
      (fun f ->
        if List.mem f l2 then None
        else Some (Printf.sprintf "family %s %s" f tag))
      l1
  in
  violation_rows
    (missing "allocated but never deallocated" allocated deallocated
    @ missing "deallocated but never allocated" deallocated allocated)

(* Every busy state the directory can enter must have consuming rows for
   everything it waits on, or a transaction can hang there forever.  The
   expected stimuli per pending suffix: s/sd wait on snoop responses,
   d/sd on a memory response, w on the owner's crossing writeback, m/sm
   on the memory ack, sr/sm on the late snoop response. *)
let busy_progress_check db =
  let d = Database.find db "D" in
  let entered =
    List.sort_uniq String.compare
      (distinct_values
         (Planner.select ~keep:[ "nxtbdirst" ]
            (Expr.neq "bdirop" "dealloc")
            d)
         "nxtbdirst")
  in
  let consumed_by state msgs =
    Planner.exists ~indexes:[ "bdirst" ]
      Expr.(eq "bdirst" state &&& isin "inmsg" msgs)
      d
  in
  let snoop_responses = [ "idone"; "sdata"; "sack"; "snack"; "swbdata" ] in
  let needs state =
    match String.rindex_opt state '-' with
    | None -> []
    | Some i -> (
        match String.sub state (i + 1) (String.length state - i - 1) with
        | "sd" -> [ "snoop response", snoop_responses;
                    "memory response", [ "mdata"; "mack"; "mnack" ] ]
        | "s" -> [ "snoop response", snoop_responses ]
        | "d" -> [ "memory response", [ "mdata"; "mack"; "mnack" ] ]
        | "w" -> [ "crossing writeback", [ "wb" ] ]
        | "m" -> [ "memory ack", [ "mack"; "mnack" ] ]
        | "sm" -> [ "memory ack", [ "mack"; "mnack" ];
                    "late snoop response", [ "snack" ] ]
        | "sr" -> [ "late snoop response", [ "snack" ] ]
        | "c" -> [ "completion ack", [ "compl" ] ]
        | _ -> [])
  in
  let bad =
    List.concat_map
      (fun state ->
        if state = "I" then []
        else
          List.filter_map
            (fun (what, msgs) ->
              if consumed_by state msgs then None
              else Some (Printf.sprintf "%s can hang: no %s row" state what))
            (needs state))
      entered
  in
  violation_rows bad

(* ------------------------------------------------------------------ *)
(* The suite                                                           *)
(* ------------------------------------------------------------------ *)

let all =
  [
    (* -- directory state / presence vector (paper, section 4.3) ------ *)
    sql "d-mesi-pv-one" "D"
      "a MESI line has exactly one owner in the presence vector"
      "SELECT dirst, dirpv FROM D WHERE dirst = 'MESI' AND NOT dirpv = 'one'";
    sql "d-si-pv-many" "D" "an SI line has one or more sharers"
      "SELECT dirst, dirpv FROM D WHERE dirst = 'SI' AND NOT dirpv IN ('one','gone')";
    sql "d-i-pv-zero" "D" "an invalid line has no sharers"
      "SELECT dirst, dirpv FROM D WHERE dirst = 'I' AND NOT dirpv = 'zero'";
    sql "d-reqpv-consistent" "D"
      "a set requester presence bit implies a non-empty presence vector"
      "SELECT reqpv, dirpv FROM D WHERE reqpv = 'in' AND dirpv = 'zero'";
    (* -- directory / busy-directory mutual exclusion (paper) --------- *)
    sql "d-dir-bdir-exclusive" "D"
      "a line lives in the directory or the busy directory, never both"
      "SELECT dirst, bdirst FROM D WHERE NOT dirst = 'I' AND NOT dirst = NULL AND NOT bdirst = 'I' AND NOT bdirst = NULL";
    (* -- request serialization (paper) -------------------------------- *)
    sql "d-busy-retry" "D"
      "a request that finds the line busy is answered retry"
      "SELECT inmsg, bdirst, locmsg FROM D WHERE isrequest(inmsg) AND inmsgres = 'reqq' AND bdirlookup = 'hit' AND NOT locmsg = 'retry' AND NOT (inmsg = 'wb' AND locmsg = 'compl') AND NOT inmsg IN ('repl','racevict')";
    sql "d-retry-frozen" "D" "a retried request changes no state"
      "SELECT inmsg, bdirst FROM D WHERE locmsg = 'retry' AND bdirlookup = 'hit' AND (NOT dirwr = NULL OR NOT bdirop = NULL OR NOT remmsg = NULL OR NOT memmsg = NULL)";
    sql "d-dealloc-only-on-completion" "D"
      "a busy entry closes with D receiving a compl or sending a terminal response (the paper's completion invariant)"
      "SELECT inmsg, bdirst, locmsg FROM D WHERE bdirop = 'dealloc' AND locmsg = NULL AND NOT inmsg = 'compl'";
    sql "d-response-needs-busy" "D"
      "responses are only consumed against a busy entry"
      "SELECT inmsg FROM D WHERE isresponse(inmsg) AND NOT bdirlookup = 'hit'";
    sql "d-response-never-retried" "D" "responses are never retried"
      "SELECT inmsg FROM D WHERE isresponse(inmsg) AND locmsg = 'retry'";
    (* -- lookup-result consistency ------------------------------------ *)
    sql "d-dirlookup-hit" "D" "a directory hit implies a tracked state"
      "SELECT dirst, dirlookup FROM D WHERE dirlookup = 'hit' AND NOT dirst IN ('SI','MESI')";
    sql "d-dirlookup-miss" "D" "a directory miss implies the invalid state"
      "SELECT dirst, dirlookup FROM D WHERE dirlookup = 'miss' AND NOT dirst = 'I'";
    sql "d-bdirlookup-hit" "D" "a busy-directory hit carries a busy state"
      "SELECT bdirst FROM D WHERE bdirlookup = 'hit' AND (bdirst = 'I' OR bdirst = NULL)";
    sql "d-bdirlookup-miss" "D" "a busy-directory miss carries no busy state"
      "SELECT bdirst FROM D WHERE bdirlookup = 'miss' AND NOT bdirst = NULL AND NOT bdirst = 'I'";
    (* -- message-direction well-formedness ----------------------------- *)
    sql "d-locmsg-class" "D" "messages to the requester are responses"
      "SELECT locmsg FROM D WHERE NOT locmsg = NULL AND NOT isresponse(locmsg)";
    sql "d-locmsg-route" "D" "requester responses are routed home -> local"
      "SELECT locmsg, locmsgsrc, locmsgdest FROM D WHERE NOT locmsg = NULL AND (NOT locmsgsrc = 'home' OR NOT locmsgdest = 'local')";
    sql "d-remmsg-class" "D" "messages to remote nodes are snoop requests"
      "SELECT remmsg FROM D WHERE NOT remmsg = NULL AND NOT remmsg IN ('sinv','sread','sflush','sdown','sioread','siowrite')";
    sql "d-remmsg-route" "D" "snoops are routed home -> remote"
      "SELECT remmsg, remmsgsrc, remmsgdest FROM D WHERE NOT remmsg = NULL AND (NOT remmsgsrc = 'home' OR NOT remmsgdest = 'remote')";
    sql "d-memmsg-class" "D" "messages to memory are memory-path requests"
      "SELECT memmsg FROM D WHERE NOT memmsg = NULL AND NOT memmsg IN ('mread','mwrite','mrmw','mupdate','mioread','miowrite')";
    sql "d-memmsg-route" "D" "memory requests stay inside the home quad"
      "SELECT memmsg, memmsgsrc, memmsgdest FROM D WHERE NOT memmsg = NULL AND (NOT memmsgsrc = 'home' OR NOT memmsgdest = 'home')";
    sql "d-request-source" "D" "requests arrive from the local role"
      "SELECT inmsg, inmsgsrc FROM D WHERE isrequest(inmsg) AND inmsgres = 'reqq' AND NOT inmsgsrc = 'local'";
    sql "d-response-source" "D" "responses arrive from remote nodes or home"
      "SELECT inmsg, inmsgsrc FROM D WHERE isresponse(inmsg) AND NOT inmsgres = 'ackq' AND NOT inmsgsrc IN ('remote','home')";
    (* -- busy-directory lifecycle -------------------------------------- *)
    sql "d-alloc-on-request" "D" "busy entries are allocated by requests"
      "SELECT inmsg FROM D WHERE bdirop = 'alloc' AND NOT inmsgres = 'reqq'";
    sql "d-update-on-response" "D" "busy entries are updated by responses"
      "SELECT inmsg FROM D WHERE bdirop = 'update' AND NOT inmsgres = 'respq' AND NOT inmsg = 'wb'";
    sql "d-dealloc-on-response" "D"
      "busy entries are deallocated by responses or completion acks"
      "SELECT inmsg FROM D WHERE bdirop = 'dealloc' AND NOT inmsgres IN ('respq','ackq')";
    sql "d-alloc-targets-busy" "D" "allocation installs a busy state"
      "SELECT nxtbdirst FROM D WHERE bdirop = 'alloc' AND (nxtbdirst = 'I' OR nxtbdirst = NULL)";
    sql "d-dealloc-clears" "D" "deallocation clears the busy state"
      "SELECT nxtbdirst FROM D WHERE bdirop = 'dealloc' AND NOT nxtbdirst = 'I'";
    sql "d-alloc-loads-pv" "D"
      "allocation snapshots the presence vector into the busy entry"
      "SELECT nxtbdirpv FROM D WHERE bdirop = 'alloc' AND NOT nxtbdirpv IN ('repl','drepl')";
    sql "d-busy-noop-without-op" "D"
      "the busy state never changes without a busy-directory operation"
      "SELECT nxtbdirst FROM D WHERE bdirop = NULL AND NOT nxtbdirst = NULL";
    (* -- sharing-state transfer ----------------------------------------- *)
    sql "d-ownership-transfer" "D"
      "granting ownership installs exactly the requester in the vector"
      "SELECT nxtdirst, nxtdirpv FROM D WHERE nxtdirst = 'MESI' AND NOT nxtdirpv = 'repl'";
    sql "d-data-has-source" "D" "data responses name their data source"
      "SELECT locmsg, datasrc FROM D WHERE locmsg IN ('data','datax') AND datasrc = NULL";
    sql "d-owner-data-provenance" "D"
      "owner-sourced data comes from a data-bearing snoop response"
      "SELECT inmsg, datasrc FROM D WHERE datasrc = 'owner' AND inmsgres = 'respq' AND NOT inmsg IN ('sdata','swbdata')";
    sql "d-grant-awaits-ack" "D"
      "granting data holds the entry in the completion-ack phase"
      "SELECT locmsg, nxtbdirst FROM D WHERE locmsg IN ('data','datax') AND NOT nxtbdirst IN ('Busy-read-c','Busy-fetch-c','Busy-readex-c','Busy-swap-c','Busy-upgrade-c')";
    sql "d-ack-deallocates" "D"
      "a completion ack always releases the busy entry and publishes state"
      "SELECT inmsg, bdirop FROM D WHERE inmsg = 'compl' AND inmsgres = 'ackq' AND (NOT bdirop = 'dealloc' OR NOT dirwr = 'yes')";
    sql "d-io-no-coherence" "D" "I/O transactions bypass coherence machinery"
      "SELECT inmsg FROM D WHERE addrspace = 'io' AND (NOT remmsg = NULL OR NOT dirwr = NULL)";
    sql "d-wb-to-memory" "D" "writebacks of owned lines reach memory"
      "SELECT inmsg, memmsg FROM D WHERE inmsg IN ('wb','flush') AND dirst = 'MESI' AND NOT memmsg = 'mwrite'";
    sql "d-snoop-only-when-cached" "D"
      "snoops are sent only when the directory says the line is cached"
      "SELECT dirst, remmsg FROM D WHERE NOT remmsg = NULL AND inmsgres = 'reqq' AND NOT dirst IN ('SI','MESI')";
    (* -- writeback-absorption and completion-ack discipline ------------ *)
    sql "d-absorb-forwards-data" "D"
      "an absorbed writeback reaches memory and completes to its issuer"
      "SELECT inmsg, memmsg, locmsg FROM D WHERE inmsg = 'wb' AND bdirop = 'update' AND (NOT memmsg = 'mwrite' OR NOT locmsg = 'compl')";
    sql "d-w-needs-snack" "D"
      "the awaiting-writeback state is entered only on the owner's snack"
      "SELECT inmsg, nxtbdirst FROM D WHERE nxtbdirst IN ('Busy-read-w','Busy-fetch-w','Busy-readex-w','Busy-swap-w','Busy-upgrade-w') AND NOT inmsg = 'snack'";
    sql "d-m-needs-wb-or-snack" "D"
      "the ack-then-refetch state follows a writeback or its late snack"
      "SELECT inmsg, nxtbdirst FROM D WHERE nxtbdirst IN ('Busy-read-m','Busy-fetch-m','Busy-readex-m','Busy-swap-m','Busy-upgrade-m') AND NOT inmsg IN ('wb','snack')";
    sql "d-sr-needs-mack" "D"
      "the refetch-on-snack state is entered once the write is ordered"
      "SELECT inmsg, nxtbdirst FROM D WHERE nxtbdirst IN ('Busy-read-sr','Busy-fetch-sr','Busy-readex-sr','Busy-swap-sr','Busy-upgrade-sr') AND NOT inmsg = 'mack'";
    sql "d-refetch-after-order" "D"
      "a late snack after an absorbed writeback triggers the memory refetch"
      "SELECT inmsg, memmsg FROM D WHERE bdirst IN ('Busy-read-sr','Busy-fetch-sr','Busy-readex-sr','Busy-swap-sr','Busy-upgrade-sr') AND inmsg = 'snack' AND NOT memmsg = 'mread'";
    sql "d-ack-phase-quiet" "D"
      "no protocol response can arrive during the completion-ack phase"
      "SELECT inmsg, bdirst FROM D WHERE bdirst IN ('Busy-read-c','Busy-fetch-c','Busy-readex-c','Busy-swap-c','Busy-upgrade-c') AND inmsgres = 'respq'";
    sql "d-grant-enters-ack-phase" "D"
      "entering the ack phase always carries the grant to the requester"
      "SELECT locmsg, nxtbdirst FROM D WHERE nxtbdirst IN ('Busy-read-c','Busy-fetch-c','Busy-readex-c','Busy-swap-c','Busy-upgrade-c') AND NOT locmsg IN ('data','datax','compl')";
    sql "d-no-snoop-from-responses" "D"
      "response processing never snoops (no VC2 -> VC1 dependency)"
      "SELECT inmsg, remmsg FROM D WHERE inmsgres = 'respq' AND NOT remmsg = NULL";
    sql "d-io-busy-families" "D"
      "I/O transactions allocate only I/O busy families"
      "SELECT inmsg, nxtbdirst FROM D WHERE addrspace = 'io' AND bdirop = 'alloc' AND NOT nxtbdirst IN ('Busy-ioread-d','Busy-iowrite-d','Busy-iormw-d')";
    sql "d-locks-never-busy" "D"
      "lock traffic resolves immediately: no busy-directory entries"
      "SELECT inmsg, bdirop FROM D WHERE inmsg IN ('lock','unlock') AND NOT bdirop = NULL";
    (* -- memory controller ---------------------------------------------- *)
    sql "m-always-responds" "M" "memory answers every request"
      "SELECT inmsg FROM M WHERE outmsg = NULL AND NOT inmsg = 'mupdate'";
    sql "m-responds-responses" "M" "memory emits only response messages"
      "SELECT outmsg FROM M WHERE NOT outmsg = NULL AND NOT isresponse(outmsg)";
    sql "m-err-nacks" "M" "an ECC error is reported as mnack"
      "SELECT eccst, outmsg FROM M WHERE eccst = 'err' AND NOT inmsg = 'mupdate' AND NOT outmsg = 'mnack'";
    sql "m-read-data" "M" "a successful read returns data"
      "SELECT inmsg, outmsg FROM M WHERE inmsg = 'mread' AND eccst = 'ok' AND NOT outmsg = 'mdata'";
    sql "m-write-ack" "M" "a successful write is acknowledged"
      "SELECT inmsg, outmsg FROM M WHERE inmsg = 'mwrite' AND eccst = 'ok' AND NOT outmsg = 'mack'";
    (* -- cache (snoop) controller ---------------------------------------- *)
    sql "c-snoop-answered" "C" "every snoop gets a response"
      "SELECT inmsg FROM C WHERE inmsgres = 'snpq' AND respmsg = NULL";
    sql "c-inval-invalidates" "C" "sinv and sflush leave the line invalid"
      "SELECT inmsg, nxtcachest FROM C WHERE inmsg IN ('sinv','sflush') AND inmsgres = 'snpq' AND NOT nxtcachest = 'I'";
    sql "c-sread-downgrades" "C" "sread of a dirty line supplies data and downgrades"
      "SELECT nxtcachest FROM C WHERE inmsg = 'sread' AND cachest = 'M' AND NOT (respmsg = 'sdata' AND nxtcachest = 'S')";
    sql "c-dirty-not-lost" "C" "dirty data always leaves in a data message"
      "SELECT cachest, respmsg, nodemsg FROM C WHERE cachest = 'M' AND NOT nxtcachest = 'M' AND NOT respmsg IN ('sdata','swbdata') AND NOT nodemsg = 'cwbdata'";
    sql "c-no-sinv-on-owner" "C" "owners are flushed, never blind-invalidated"
      "SELECT cachest FROM C WHERE inmsg = 'sinv' AND cachest = 'M'";
    (* -- node controller --------------------------------------------------- *)
    sql "n-retry-no-reissue" "N"
      "retry consumption never emits a network request (deadlock freedom)"
      "SELECT inmsg, netmsg FROM N WHERE inmsg = 'retry' AND NOT netmsg = NULL";
    sql "n-responses-resolve" "N"
      "every consumed response resolves the pending operation"
      "SELECT inmsg FROM N WHERE inmsgres = 'respq' AND procresult = NULL AND cachemsg = NULL";
    (* -- remote access cache ------------------------------------------------ *)
    sql "rac-snoop-answered" "RAC" "every RAC snoop gets a response"
      "SELECT inmsg FROM RAC WHERE inmsgres = 'snpq' AND respmsg = NULL";
    sql "rac-evict-internal" "RAC"
      "evictions are issued only by the background engine"
      "SELECT inmsg FROM RAC WHERE NOT evictmsg = NULL AND NOT inmsgres = 'evq'";
    sql "rac-dirty-not-lost" "RAC" "dirty RAC data always leaves in a data message"
      "SELECT racst FROM RAC WHERE racst = 'M' AND NOT nxtracst = 'M' AND NOT respmsg IN ('sdata','swbdata') AND NOT evictmsg = 'wb'";
    (* -- I/O controller ------------------------------------------------------ *)
    sql "io-always-responds" "IO" "the device bus answers every request"
      "SELECT inmsg FROM IO WHERE outmsg = NULL";
    sql "io-busy-nacks" "IO" "a busy device is reported as mnack"
      "SELECT devst, outmsg FROM IO WHERE devst = 'busy' AND NOT outmsg = 'mnack'";
    (* -- processor interface --------------------------------------------------- *)
    sql "pif-requests-only" "PIF" "the processor interface emits only requests"
      "SELECT reqmsg FROM PIF WHERE NOT reqmsg = NULL AND NOT isrequest(reqmsg)";
    sql "pif-store-miss" "PIF" "a store miss requests exclusive ownership"
      "SELECT procop, reqmsg FROM PIF WHERE procop = 'store' AND cachest = 'I' AND NOT reqmsg = 'readex'";
    sql "pif-resolution" "PIF"
      "every processor operation either issues a request or completes"
      "SELECT procop FROM PIF WHERE reqmsg = NULL AND procresult = NULL";
    (* -- native cross-table checks ----------------------------------------------- *)
    native "x-deterministic" "*"
      "every controller table is a function of its input columns"
      determinism_check;
    native "x-snoop-coverage" "*"
      "every snoop response a cache can emit is handled by the directory"
      snoop_coverage_check;
    native "x-request-coverage" "*"
      "every processor-issued request has serving and retry rows in D"
      request_coverage_check;
    native "x-local-response-coverage" "*"
      "every directory response to the requester is handled by the node"
      local_response_coverage_check;
    native "d-busy-family-preserved" "D"
      "busy-directory updates stay within one transaction family"
      busy_family_check;
    native "d-busy-lifecycle" "D"
      "busy families are both allocated and deallocated" busy_lifecycle_check;
    native "d-busy-progress" "D"
      "every reachable busy state has rows consuming what it waits on"
      busy_progress_check;
  ]

let find id = List.find_opt (fun i -> i.id = id) all

let obs_reg = lazy (Obs.Metrics.registry "checker")

(* Per-invariant checked/violated counters feed the invariant hit
   matrix of `asura report` via the manifest metrics snapshot; the two
   aggregates give the one-line totals. *)
let record_result inv ~passed ~nviolations =
  let reg = Lazy.force obs_reg in
  Obs.Metrics.incr (Obs.Metrics.counter reg ("inv." ^ inv.id ^ ".checked"));
  Obs.Metrics.incr (Obs.Metrics.counter reg "invariants_checked");
  if not passed then begin
    Obs.Metrics.add
      (Obs.Metrics.counter reg ("inv." ^ inv.id ^ ".violated"))
      nviolations;
    Obs.Metrics.incr (Obs.Metrics.counter reg "invariants_violated")
  end

let run db inv =
  let violations =
    (* the invariant id tags every plan its check executes (SQL directly,
       native checks through whatever queries/joins they issue), so
       sys.plans attributes planner work to the invariant that caused it *)
    Obs.Planlog.with_site ("invariant:" ^ inv.id) @@ fun () ->
    match inv.check with
    | Sql q -> Sql_exec.query db q
    | Native f -> f db
  in
  let passed = Table.is_empty violations in
  record_result inv ~passed ~nviolations:(Table.cardinality violations);
  { invariant = inv; passed; violations }

let run_all ?invariants db =
  List.map (run db) (Option.value invariants ~default:all)

let failures results = List.filter (fun r -> not r.passed) results

let summary results =
  let buf = Buffer.create 512 in
  let pr fmt = Printf.ksprintf (Buffer.add_string buf) fmt in
  List.iter
    (fun r ->
      pr "%-32s %-4s %s\n" r.invariant.id
        (if r.passed then "ok" else "FAIL")
        r.invariant.description;
      if not r.passed then begin
        pr "%s" (Table.to_string (Table.with_name "violations" r.violations))
      end)
    results;
  let failed = List.length (failures results) in
  pr "%d invariants checked, %d failed\n" (List.length results) failed;
  Buffer.contents buf
