open Relalg
open Ctrl_spec

(* ------------------------------------------------------------------ *)
(* Column tables                                                       *)
(* ------------------------------------------------------------------ *)

let input_columns =
  [
    "inmsg"; "inmsgsrc"; "inmsgdest"; "inmsgres"; "addrspace"; "dirst";
    "dirpv"; "reqpv"; "bdirst"; "bdirpv"; "dirlookup"; "bdirlookup";
  ]

let output_columns =
  [
    "locmsg"; "locmsgsrc"; "locmsgdest"; "locmsgres"; "remmsg"; "remmsgsrc";
    "remmsgdest"; "remmsgres"; "memmsg"; "memmsgsrc"; "memmsgdest";
    "memmsgres"; "nxtdirst"; "nxtdirpv"; "nxtbdirst"; "nxtbdirpv"; "dirwr";
    "bdirop"; "datasrc";
  ]

let inputs =
  [
    ( "inmsg",
      Message.local_requests @ Message.snoop_responses
      @ Message.memory_responses @ [ "compl" ] );
    "inmsgsrc", [ "local"; "remote"; "home" ];
    "inmsgdest", [ "home" ];
    "inmsgres", [ "reqq"; "respq"; "ackq" ];
    "addrspace", [ "mem"; "io" ];
    "dirst", [ "I"; "SI"; "MESI" ];
    "dirpv", State.pv_values;
    "reqpv", [ "in"; "out" ];
    "bdirst", State.bdir_domain;
    "bdirpv", State.pv_values;
    "dirlookup", State.lookup_values;
    "bdirlookup", State.lookup_values;
  ]

let outputs =
  [
    ( "locmsg",
      [ "data"; "datax"; "compl"; "retry"; "nack"; "iodata"; "iocompl";
        "intack"; "lockgrant"; "racfill" ] );
    "locmsgsrc", [ "home" ];
    "locmsgdest", [ "local" ];
    "locmsgres", [ "locq" ];
    "remmsg", Message.snoop_requests;
    "remmsgsrc", [ "home" ];
    "remmsgdest", [ "remote" ];
    "remmsgres", [ "remq" ];
    "memmsg", Message.memory_requests;
    "memmsgsrc", [ "home" ];
    "memmsgdest", [ "home" ];
    "memmsgres", [ "memq" ];
    "nxtdirst", [ "I"; "SI"; "MESI" ];
    "nxtdirpv", State.pv_ops;
    "nxtbdirst", State.bdir_domain;
    "nxtbdirpv", State.pv_ops;
    "dirwr", [ "yes"; "no" ];
    "bdirop", [ "alloc"; "update"; "dealloc" ];
    "datasrc", [ "mem"; "owner" ];
  ]

(* ------------------------------------------------------------------ *)
(* Scenario combinators                                                *)
(* ------------------------------------------------------------------ *)

let scen label when_ emit = { label; when_; emit }
let busy txn p = Printf.sprintf "Busy-%s-%s" txn p

(* A request being served (line not busy).  [dirst], when given, also pins
   the directory-lookup result; [space] is the address space of the
   transaction (mem / io), omitted for special messages. *)
let request_when ?dirst ?dirpv ?reqpv ?space msgs =
  let inmsg = match msgs with [ m ] -> V m | ms -> Among ms in
  [
    "inmsg", inmsg;
    "inmsgsrc", V "local";
    "inmsgdest", V "home";
    "inmsgres", V "reqq";
    "bdirlookup", V "miss";
  ]
  @ (match space with None -> [] | Some sp -> [ "addrspace", V sp ])
  @ (match dirst with
    | None -> []
    | Some st ->
        [ "dirst", V st; "dirlookup", V (if st = "I" then "miss" else "hit") ])
  @ (match reqpv with None -> [] | Some r -> [ "reqpv", V r ])
  @ match dirpv with
    | None -> []
    | Some [ pv ] -> [ "dirpv", V pv ]
    | Some pvs -> [ "dirpv", Among pvs ]

(* A response consuming a busy-directory entry. *)
let response_when ?bdirpv ~bdirst msg =
  let m = Message.find_exn msg in
  [
    "inmsg", V msg;
    "inmsgsrc", V (Topology.node_class_to_string m.Message.src);
    "inmsgdest", V "home";
    "inmsgres", V "respq";
    "bdirlookup", V "hit";
    "bdirst", bdirst;
  ]
  @ match bdirpv with None -> [] | Some pv -> [ "bdirpv", V pv ]

let to_local msg =
  [
    "locmsg", Out msg; "locmsgsrc", Out "home"; "locmsgdest", Out "local";
    "locmsgres", Out "locq";
  ]

let to_remote msg =
  [
    "remmsg", Out msg; "remmsgsrc", Out "home"; "remmsgdest", Out "remote";
    "remmsgres", Out "remq";
  ]

let to_mem msg =
  [
    "memmsg", Out msg; "memmsgsrc", Out "home"; "memmsgdest", Out "home";
    "memmsgres", Out "memq";
  ]

let dir_write ?pv st =
  [ "dirwr", Out "yes"; "nxtdirst", Out st ]
  @ match pv with None -> [] | Some op -> [ "nxtdirpv", Out op ]

(* Allocate a busy entry; its pv is loaded from the directory pv ([repl])
   or from the directory pv minus the requester itself ([drepl]). *)
let alloc ?(pv = "repl") st = [ "bdirop", Out "alloc"; "nxtbdirst", Out st; "nxtbdirpv", Out pv ]

let update ?pv st =
  [ "bdirop", Out "update"; "nxtbdirst", Out st ]
  @ match pv with None -> [] | Some op -> [ "nxtbdirpv", Out op ]

let dealloc = [ "bdirop", Out "dealloc"; "nxtbdirst", Out "I" ]
let from_owner = [ "datasrc", Out "owner" ]
let from_mem = [ "datasrc", Out "mem" ]

(* ------------------------------------------------------------------ *)
(* Transaction families                                                *)
(* ------------------------------------------------------------------ *)

(* Shared reads (read, fetch): data ends up shared; a dirty owner is
   downgraded with [sread] and supplies the data. *)
let read_family txn =
  [
    scen (txn ^ "-miss")
      (request_when ~dirst:"I" ~dirpv:[ "zero" ] ~space:"mem" [ txn ])
      (to_mem "mread" @ alloc (busy txn "d") @ from_mem);
    scen (txn ^ "-shared")
      (request_when ~dirst:"SI" ~dirpv:[ "one"; "gone" ] ~space:"mem" [ txn ])
      (to_mem "mread" @ dir_write "I" @ alloc (busy txn "d") @ from_mem);
    scen (txn ^ "-owned")
      (request_when ~dirst:"MESI" ~dirpv:[ "one" ] ~space:"mem" [ txn ])
      (to_remote "sread" @ dir_write "I" @ alloc (busy txn "s") @ from_owner);
    scen (txn ^ "-mdata-grant")
      (response_when ~bdirst:(V (busy txn "d")) "mdata")
      (to_local "data" @ update (busy txn "c") @ from_mem);
    scen (txn ^ "-sdata-grant")
      (response_when ~bdirst:(V (busy txn "s")) ~bdirpv:"one" "sdata")
      (to_local "data" @ to_mem "mupdate" @ update (busy txn "c")
      @ from_owner);
  ]

(* Exclusive accesses (readex, swap): all sharers invalidated, dirty owner
   flushed; the requester becomes the MESI owner.  This is the paper's
   Figure 2/3 transaction. *)
let exclusive_family txn =
  [
    scen (txn ^ "-miss")
      (request_when ~dirst:"I" ~dirpv:[ "zero" ] ~space:"mem" [ txn ])
      (to_mem "mread" @ alloc (busy txn "d") @ from_mem);
    scen (txn ^ "-shared")
      (request_when ~dirst:"SI" ~dirpv:[ "one"; "gone" ] ~space:"mem" [ txn ])
      (to_remote "sinv" @ to_mem "mread" @ dir_write "I"
      @ alloc (busy txn "sd") @ from_mem);
    scen (txn ^ "-owned")
      (request_when ~dirst:"MESI" ~dirpv:[ "one" ] ~space:"mem" [ txn ])
      (to_remote "sflush" @ dir_write "I" @ alloc (busy txn "s") @ from_owner);
    scen (txn ^ "-idone-sd-more")
      (response_when ~bdirst:(V (busy txn "sd")) ~bdirpv:"gone" "idone")
      (update (busy txn "sd") ~pv:"dec");
    scen (txn ^ "-idone-sd-last")
      (response_when ~bdirst:(V (busy txn "sd")) ~bdirpv:"one" "idone")
      (update (busy txn "d") ~pv:"dec");
    scen (txn ^ "-mdata-sd")
      (response_when ~bdirst:(V (busy txn "sd")) "mdata")
      (update (busy txn "s"));
    scen (txn ^ "-idone-s-more")
      (response_when ~bdirst:(V (busy txn "s")) ~bdirpv:"gone" "idone")
      (update (busy txn "s") ~pv:"dec");
    scen (txn ^ "-idone-s-grant")
      (response_when ~bdirst:(V (busy txn "s")) ~bdirpv:"one" "idone")
      (to_local "datax" @ update (busy txn "c") @ from_mem);
    scen (txn ^ "-mdata-grant")
      (response_when ~bdirst:(V (busy txn "d")) "mdata")
      (to_local "datax" @ update (busy txn "c") @ from_mem);
    scen (txn ^ "-sdata-grant")
      (response_when ~bdirst:(V (busy txn "s")) ~bdirpv:"one" "sdata")
      (to_local "datax" @ update (busy txn "c") @ from_owner);
    scen (txn ^ "-swbdata-grant")
      (response_when ~bdirst:(V (busy txn "s")) ~bdirpv:"one" "swbdata")
      (to_local "datax" @ update (busy txn "c") @ from_owner);
  ]

(* Ownership upgrade: no data needed when the requester is the only
   sharer; otherwise the other sharers are invalidated.  Races where the
   requester's copy was already invalidated degrade to a readex. *)
let upgrade_family =
  let txn = "upgrade" in
  [
    (* the requester still holds its shared copy (presence bit set) *)
    scen "upgrade-solo"
      (request_when ~dirst:"SI" ~dirpv:[ "one" ] ~reqpv:"in" ~space:"mem"
         [ txn ])
      (to_local "compl" @ dir_write "I" @ alloc (busy txn "c"));
    scen "upgrade-shared"
      (request_when ~dirst:"SI" ~dirpv:[ "gone" ] ~reqpv:"in" ~space:"mem"
         [ txn ])
      (to_remote "sinv" @ dir_write "I" @ alloc ~pv:"drepl" (busy txn "s"));
    (* the requester's copy was invalidated while the upgrade was in
       flight: it needs data again, like a readex *)
    scen "upgrade-lost"
      (request_when ~dirst:"SI" ~dirpv:[ "one"; "gone" ] ~reqpv:"out"
         ~space:"mem" [ txn ])
      (to_remote "sinv" @ to_mem "mread" @ dir_write "I"
      @ alloc (busy txn "sd") @ from_mem);
    scen "upgrade-race-owned"
      (request_when ~dirst:"MESI" ~dirpv:[ "one" ] ~reqpv:"out" ~space:"mem"
         [ txn ])
      (to_remote "sflush" @ dir_write "I" @ alloc (busy txn "s") @ from_owner);
    scen "upgrade-race-inval"
      (request_when ~dirst:"I" ~dirpv:[ "zero" ] ~space:"mem" [ txn ])
      (to_mem "mread" @ alloc (busy txn "d") @ from_mem);
    scen "upgrade-idone-sd-more"
      (response_when ~bdirst:(V (busy txn "sd")) ~bdirpv:"gone" "idone")
      (update (busy txn "sd") ~pv:"dec");
    scen "upgrade-idone-sd-last"
      (response_when ~bdirst:(V (busy txn "sd")) ~bdirpv:"one" "idone")
      (update (busy txn "d") ~pv:"dec");
    scen "upgrade-mdata-sd"
      (response_when ~bdirst:(V (busy txn "sd")) "mdata")
      (update (busy txn "s"));
    scen "upgrade-idone-more"
      (response_when ~bdirst:(V (busy txn "s")) ~bdirpv:"gone" "idone")
      (update (busy txn "s") ~pv:"dec");
    scen "upgrade-idone-grant"
      (response_when ~bdirst:(V (busy txn "s")) ~bdirpv:"one" "idone")
      (to_local "compl" @ update (busy txn "c"));
    scen "upgrade-sdata-grant"
      (response_when ~bdirst:(V (busy txn "s")) ~bdirpv:"one" "sdata")
      (to_local "datax" @ update (busy txn "c") @ from_owner);
    scen "upgrade-swbdata-grant"
      (response_when ~bdirst:(V (busy txn "s")) ~bdirpv:"one" "swbdata")
      (to_local "datax" @ update (busy txn "c") @ from_owner);
    scen "upgrade-mdata-grant"
      (response_when ~bdirst:(V (busy txn "d")) "mdata")
      (to_local "datax" @ update (busy txn "c") @ from_mem);
  ]

(* Writeback-race absorption.  A dirty owner may issue [wb] concurrently
   with a flush snoop for the same line; the snoop then finds the line
   gone and answers [snack].  Retrying the crossing [wb] would let the
   requester read stale memory, so instead the directory absorbs it:
   forward the data to memory ([mwrite]), complete the writeback, and
   fetch fresh data with [mread] only after the write is ordered (the
   memory queue is FIFO, so enqueueing the read after the ack suffices).
   The states: [w] — snack seen, writeback still in flight; [m] —
   writeback forwarded, ack pending, read next; [sm] — writeback absorbed
   before its snack arrived. *)
let wb_race_family txn =
  let wb_at st =
    [
      "inmsg", V "wb"; "inmsgsrc", V "local"; "inmsgdest", V "home";
      "inmsgres", V "reqq"; "bdirlookup", V "hit"; "bdirst", V (busy txn st);
    ]
  in
  let absorb = to_mem "mwrite" @ to_local "compl" in
  [
    scen (txn ^ "-snack-owner-gone")
      (response_when ~bdirst:(V (busy txn "s")) ~bdirpv:"one" "snack")
      (update (busy txn "w") ~pv:"dec");
    scen (txn ^ "-wb-late") (wb_at "w") (absorb @ update (busy txn "m"));
    scen (txn ^ "-mack-refetch")
      (response_when ~bdirst:(V (busy txn "m")) "mack")
      (to_mem "mread" @ update (busy txn "d"));
    scen (txn ^ "-wb-early") (wb_at "s") (absorb @ update (busy txn "sm"));
    scen (txn ^ "-mack-early")
      (response_when ~bdirst:(V (busy txn "sm")) "mack")
      (update (busy txn "sr"));
    scen (txn ^ "-snack-early")
      (response_when ~bdirst:(V (busy txn "sm")) "snack")
      (update (busy txn "m"));
    scen (txn ^ "-snack-refetch")
      (response_when ~bdirst:(V (busy txn "sr")) "snack")
      (to_mem "mread" @ update (busy txn "d"));
  ]

(* Writebacks (wb, flush): dirty data returns to home memory; the paper's
   Figure 4 deadlock is triggered by exactly this forwarding path. *)
let writeback_family txn =
  [
    scen (txn ^ "-owned")
      (request_when ~dirst:"MESI" ~dirpv:[ "one" ] ~reqpv:"in" ~space:"mem"
         [ txn ])
      (to_mem "mwrite" @ dir_write "I" ~pv:"dec" @ alloc (busy txn "d"));
    scen (txn ^ "-stale")
      (request_when ~dirst:"I" ~dirpv:[ "zero" ] ~space:"mem" [ txn ])
      (to_local "nack");
    scen (txn ^ "-mack-compl")
      (response_when ~bdirst:(V (busy txn "d")) "mack")
      (to_local "compl" @ dealloc);
  ]

(* Sharer-eviction hints (repl, racevict): unacknowledged presence-vector
   maintenance. *)
let eviction_family txn =
  [
    scen (txn ^ "-many")
      (request_when ~dirst:"SI" ~dirpv:[ "gone" ] ~reqpv:"in" ~space:"mem"
         [ txn ])
      (dir_write "SI" ~pv:"dec");
    scen (txn ^ "-last")
      (request_when ~dirst:"SI" ~dirpv:[ "one" ] ~reqpv:"in" ~space:"mem"
         [ txn ])
      (dir_write "I" ~pv:"dec");
    (* a hint that crossed an invalidation: the bit is already clear *)
    scen (txn ^ "-stale-si")
      (request_when ~dirst:"SI" ~dirpv:[ "one"; "gone" ] ~reqpv:"out"
         ~space:"mem" [ txn ])
      [];
    scen (txn ^ "-stale-i")
      (request_when ~dirst:"I" ~dirpv:[ "zero" ] ~space:"mem" [ txn ])
      [];
    scen (txn ^ "-stale-owned")
      (request_when ~dirst:"MESI" ~dirpv:[ "one" ] ~reqpv:"out" ~space:"mem"
         [ txn ])
      [];
  ]

(* Uncached I/O: serialized through the busy directory, data served by the
   home device/memory controller. *)
let io_family =
  [
    scen "ioread-start"
      (request_when ~space:"io" [ "ioread" ])
      (to_mem "mioread" @ alloc (busy "ioread" "d"));
    scen "ioread-mdata-compl"
      (response_when ~bdirst:(V (busy "ioread" "d")) "mdata")
      (to_local "iodata" @ dealloc);
    scen "iowrite-start"
      (request_when ~space:"io" [ "iowrite" ])
      (to_mem "miowrite" @ alloc (busy "iowrite" "d"));
    scen "iowrite-mack-compl"
      (response_when ~bdirst:(V (busy "iowrite" "d")) "mack")
      (to_local "iocompl" @ dealloc);
    scen "iormw-start"
      (request_when ~space:"io" [ "iormw" ])
      (to_mem "mrmw" @ alloc (busy "iormw" "d"));
    scen "iormw-mdata-compl"
      (response_when ~bdirst:(V (busy "iormw" "d")) "mdata")
      (to_local "iodata" @ dealloc);
  ]

(* Synchronization: directory entries double as lock homes. *)
let sync_family =
  [
    scen "lock-free"
      (request_when ~dirst:"I" ~dirpv:[ "zero" ] [ "lock" ])
      (to_local "lockgrant" @ dir_write "MESI" ~pv:"repl");
    (* the holder's presence bit arbitrates: only it may release, and a
       re-acquisition by the holder itself is refused (non-reentrant) *)
    scen "lock-held"
      (request_when ~dirst:"MESI" ~dirpv:[ "one" ] ~reqpv:"out" [ "lock" ])
      (to_local "retry");
    scen "lock-reentrant"
      (request_when ~dirst:"MESI" ~dirpv:[ "one" ] ~reqpv:"in" [ "lock" ])
      (to_local "nack");
    scen "unlock-held"
      (request_when ~dirst:"MESI" ~dirpv:[ "one" ] ~reqpv:"in" [ "unlock" ])
      (to_local "compl" @ dir_write "I" ~pv:"dec");
    scen "unlock-not-holder"
      (request_when ~dirst:"MESI" ~dirpv:[ "one" ] ~reqpv:"out" [ "unlock" ])
      (to_local "nack");
    scen "unlock-stale"
      (request_when ~dirst:"I" ~dirpv:[ "zero" ] [ "unlock" ])
      (to_local "nack");
    scen "sync-idle" (request_when [ "sync" ]) (to_local "compl");
    scen "intr-deliver" (request_when [ "intr" ]) (to_local "intack");
  ]

let busy_retry_label = "busy-retry"

(* Serialization: any request against any busy state is retried.  This one
   scenario expands to |requests| x |busy states| rows — the "all
   transaction interleavings" bulk of D. *)
let retry_scenario =
  scen busy_retry_label
    [
      "inmsg", Among Message.local_requests;
      "inmsgsrc", V "local";
      "inmsgdest", V "home";
      "inmsgres", V "reqq";
      "bdirlookup", V "hit";
      "bdirst", Among State.busy_strings;
    ]
    (to_local "retry")

(* Memory-error path: any data-pending transaction is aborted with nack. *)
let mnack_scenario =
  (* Only states with a memory operation outstanding can see mnack; lock,
     repl and racevict never allocate busy entries (caught by the
     d-busy-lifecycle invariant). *)
  let coherent = List.map State.txn_to_string State.coherent_txns in
  let d_states =
    List.map
      (fun txn -> busy txn "d")
      (coherent @ [ "wb"; "flush"; "ioread"; "iowrite"; "iormw" ])
    @ List.concat_map (fun txn -> [ busy txn "m"; busy txn "sm" ]) coherent
  in
  scen "mnack-abort"
    (response_when ~bdirst:(Among d_states) "mnack")
    (to_local "nack" @ dealloc)

(* Eviction hints against a busy line are dropped, not retried: they are
   fire-and-forget, so a retry could only be misattributed to some other
   outstanding request of the same node, and the winning transaction will
   rewrite the presence vector anyway. *)
let hint_drop_scenarios =
  [
    scen "hint-drop-busy"
      [
        "inmsg", Among [ "repl"; "racevict" ];
        "inmsgsrc", V "local"; "inmsgdest", V "home"; "inmsgres", V "reqq";
        "bdirlookup", V "hit"; "bdirst", Among State.busy_strings;
      ]
      [];
  ]

(* Completion acks: the requester confirms it installed the grant; only
   then does the directory publish the new sharing state and release the
   busy entry.  The ack rides a reserved per-entry resource (ackq), so it
   can always be consumed - no channel dependency arises. *)
let ack_when states =
  [
    "inmsg", V "compl"; "inmsgsrc", V "local"; "inmsgdest", V "home";
    "inmsgres", V "ackq"; "bdirlookup", V "hit"; "bdirst", Among states;
  ]

let ack_scenarios =
  [
    scen "ack-shared"
      (ack_when [ busy "read" "c"; busy "fetch" "c" ])
      (dir_write "SI" ~pv:"inc" @ dealloc);
    scen "ack-exclusive"
      (ack_when [ busy "readex" "c"; busy "swap" "c"; busy "upgrade" "c" ])
      (dir_write "MESI" ~pv:"repl" @ dealloc);
  ]

(* Order matters: the writeback-race rows must precede the generic busy
   retry, which would otherwise capture the crossing wb. *)
let scenarios =
  List.concat_map wb_race_family
    (List.map State.txn_to_string State.coherent_txns)
  @ hint_drop_scenarios @ ack_scenarios @ [ retry_scenario ]
  @ read_family "read" @ read_family "fetch" @ exclusive_family "readex"
  @ exclusive_family "swap" @ upgrade_family @ writeback_family "wb"
  @ writeback_family "flush" @ eviction_family "repl"
  @ eviction_family "racevict" @ io_family @ sync_family
  @ [ mnack_scenario ]

let spec = make ~name:"D" ~inputs ~outputs ~scenarios
let table () = Ctrl_spec.table spec

(* Figure 3 of the paper: the readex rows with busy states folded into the
   dirst/dirpv columns, projected onto the paper's eight columns. *)
let figure3 () =
  let d = table () in
  let schema = Table.schema d in
  let get row c = row.(Schema.index schema c) in
  let is_readex_row row =
    (not (Value.equal (get row "locmsg") (Value.str "retry")))
    && (Value.equal (get row "inmsg") (Value.str "readex")
       ||
       let b = get row "bdirst" in
       match b with
       | Value.Str s ->
           String.length s > 12 && String.sub s 0 12 = "Busy-readex-"
       | _ -> false)
  in
  let fold row =
    let busy_row = not (Value.is_null (get row "bdirst")) in
    let merged c bc = if busy_row then get row bc else get row c in
    [|
      get row "inmsg";
      merged "dirst" "bdirst";
      merged "dirpv" "bdirpv";
      get row "locmsg";
      get row "remmsg";
      get row "memmsg";
      (let next_dir = get row "nxtdirst" in
       if busy_row && Value.is_null next_dir then get row "nxtbdirst"
       else next_dir);
      get row "nxtdirpv";
    |]
  in
  let out_schema =
    Schema.of_list
      [ "inmsg"; "dirst"; "dirpv"; "locmsg"; "remmsg"; "memmsg"; "nxtdirst";
        "nxtdirpv" ]
  in
  let rows =
    Table.fold
      (fun acc row -> if is_readex_row row then fold row :: acc else acc)
      [] d
  in
  Table.of_rows ~name:"figure3" out_schema (List.rev rows)
