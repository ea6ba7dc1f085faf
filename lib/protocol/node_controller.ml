open Ctrl_spec

let inputs =
  [
    ( "inmsg",
      [ "data"; "datax"; "compl"; "retry"; "nack"; "iodata"; "iocompl";
        "intack"; "lockgrant"; "racfill"; "cinvack"; "cwbdata" ] );
    "inmsgsrc", [ "home"; "local" ];
    "inmsgdest", [ "local" ];
    "inmsgres", [ "respq"; "cacheq" ];
    ( "pendop",
      [ "read"; "write"; "rmw"; "ifetch"; "upgrade"; "wback"; "io"; "lockop";
        "syncop"; "introp" ] );
  ]

let outputs =
  [
    "cachemsg", [ "cfill"; "cinvreq"; "cwbreq" ];
    "cachemsgsrc", [ "local" ];
    "cachemsgdest", [ "local" ];
    "cachemsgres", [ "cacheq" ];
    "cachefill", [ "shared"; "excl" ];
    "procresult", [ "done"; "fault"; "retrylater" ];
    "nxtpendop", [ "none" ];
    (* the naive-retry seeded bug emits on these network columns *)
    "netmsg", [ "read"; "readex"; "upgrade" ];
    "ackmsg", [ "compl" ];
    "ackmsgsrc", [ "local" ];
    "ackmsgdest", [ "home" ];
    "ackmsgres", [ "ackq" ];
    "netmsgsrc", [ "local" ];
    "netmsgdest", [ "home" ];
    "netmsgres", [ "reqq" ];
  ]

let from_home label inmsg ~pendop ~emit =
  {
    label;
    when_ =
      ([
         "inmsg", V inmsg; "inmsgsrc", V "home"; "inmsgdest", V "local";
         "inmsgres", V "respq";
       ]
      @ match pendop with None -> [] | Some p -> [ "pendop", p ]);
    emit;
  }

let fill kind =
  [
    "cachemsg", Out "cfill"; "cachemsgsrc", Out "local";
    "cachemsgdest", Out "local"; "cachemsgres", Out "cacheq";
    "cachefill", Out kind;
  ]

let finish result = [ "procresult", Out result; "nxtpendop", Out "none" ]

(* Confirm an installed grant back to the directory. *)
let ack =
  [
    "ackmsg", Out "compl"; "ackmsgsrc", Out "local";
    "ackmsgdest", Out "home"; "ackmsgres", Out "ackq";
  ]

let scenarios =
  [
    from_home "data-read" "data"
      ~pendop:(Some (Among [ "read"; "ifetch" ]))
      ~emit:(fill "shared" @ finish "done" @ ack);
    from_home "datax-write" "datax"
      ~pendop:(Some (Among [ "write"; "rmw"; "upgrade" ]))
      ~emit:(fill "excl" @ finish "done" @ ack);
    from_home "racfill-read" "racfill" ~pendop:(Some (V "read"))
      ~emit:(fill "shared" @ finish "done" @ ack);
    from_home "compl-upgrade" "compl" ~pendop:(Some (V "upgrade"))
      ~emit:(fill "excl" @ finish "done" @ ack);
    from_home "compl-wback" "compl" ~pendop:(Some (V "wback"))
      ~emit:(finish "done");
    from_home "compl-sync" "compl" ~pendop:(Some (V "syncop"))
      ~emit:(finish "done");
    from_home "compl-unlock" "compl" ~pendop:(Some (V "lockop"))
      ~emit:(finish "done");
    from_home "iodata-done" "iodata" ~pendop:(Some (V "io"))
      ~emit:(finish "done");
    from_home "iocompl-done" "iocompl" ~pendop:(Some (V "io"))
      ~emit:(finish "done");
    from_home "intack-done" "intack" ~pendop:(Some (V "introp"))
      ~emit:(finish "done");
    from_home "lockgrant-done" "lockgrant" ~pendop:(Some (V "lockop"))
      ~emit:(finish "done");
    (* retry: report to the processor interface; no network reissue *)
    from_home "retry-backoff" "retry" ~pendop:None
      ~emit:(finish "retrylater");
    from_home "nack-fault" "nack" ~pendop:None ~emit:(finish "fault");
    (* cache interface completions *)
    {
      label = "cinvack-done";
      when_ =
        [
          "inmsg", V "cinvack"; "inmsgsrc", V "local";
          "inmsgdest", V "local"; "inmsgres", V "cacheq";
        ];
      emit = finish "done";
    };
    {
      label = "cwbdata-done";
      when_ =
        [
          "inmsg", V "cwbdata"; "inmsgsrc", V "local";
          "inmsgdest", V "local"; "inmsgres", V "cacheq";
        ];
      emit = finish "done";
    };
  ]

(* The seeded bug for E11: reissuing the pending request directly while
   consuming the retry response makes VC0 progress depend on VC3 space,
   closing the VC0 -> VC1 -> VC2 -> VC3 -> VC0 cycle. *)
let naive_retry_scenario =
  {
    label = "retry-naive-reissue";
    when_ =
      [
        "inmsg", V "retry"; "inmsgsrc", V "home"; "inmsgdest", V "local";
        "inmsgres", V "respq"; "pendop", V "read";
      ];
    emit =
      [
        "netmsg", Out "read"; "netmsgsrc", Out "local";
        "netmsgdest", Out "home"; "netmsgres", Out "reqq";
      ];
  }

let spec = make ~name:"N" ~inputs ~outputs ~scenarios
