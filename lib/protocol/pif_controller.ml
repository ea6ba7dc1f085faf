open Ctrl_spec

let inputs =
  [
    ( "procop",
      [ "load"; "store"; "rmw"; "ifetch"; "ioload"; "iostore"; "iormwop";
        "lockacq"; "lockrel"; "membar"; "sendint"; "evictsh"; "evictmod" ] );
    "cachest", [ "M"; "E"; "S"; "I" ];
  ]

let outputs =
  [
    "reqmsg", Message.local_requests;
    "reqmsgsrc", [ "local" ];
    "reqmsgdest", [ "home" ];
    "reqmsgres", [ "reqq" ];
    ( "pendop",
      [ "read"; "write"; "rmw"; "ifetch"; "upgrade"; "wback"; "io"; "lockop";
        "syncop"; "introp" ] );
    "procresult", [ "done" ];
  ]

let issue ?fire_and_forget:(faf = false) label procop ?cachest reqmsg pendop =
  {
    label;
    when_ =
      ("procop", V procop)
      :: (match cachest with None -> [] | Some st -> [ "cachest", st ]);
    emit =
      [
        "reqmsg", Out reqmsg; "reqmsgsrc", Out "local";
        "reqmsgdest", Out "home"; "reqmsgres", Out "reqq";
      ]
      @
      if faf then [ "procresult", Out "done" ]
      else [ "pendop", Out pendop ];
  }

let hit label procop cachest =
  {
    label;
    when_ = [ "procop", V procop; "cachest", cachest ];
    emit = [ "procresult", Out "done" ];
  }

let scenarios =
  [
    (* cacheable loads *)
    hit "load-hit" "load" (Among [ "M"; "E"; "S" ]);
    issue "load-miss" "load" ~cachest:(V "I") "read" "read";
    hit "ifetch-hit" "ifetch" (Among [ "M"; "E"; "S" ]);
    issue "ifetch-miss" "ifetch" ~cachest:(V "I") "fetch" "ifetch";
    (* cacheable stores *)
    hit "store-hit" "store" (Among [ "M"; "E" ]);
    issue "store-upgrade" "store" ~cachest:(V "S") "upgrade" "upgrade";
    issue "store-miss" "store" ~cachest:(V "I") "readex" "write";
    (* atomics always serialize at the home *)
    issue "rmw-any" "rmw" "swap" "rmw";
    (* replacements *)
    issue "evict-dirty" "evictmod" ~cachest:(V "M") "wb" "wback";
    issue ~fire_and_forget:true "evict-clean" "evictsh"
      ~cachest:(Among [ "E"; "S" ]) "repl" "wback";
    (* uncached I/O *)
    issue "ioload" "ioload" "ioread" "io";
    issue "iostore" "iostore" "iowrite" "io";
    issue "iormw" "iormwop" "iormw" "io";
    (* synchronization and interrupts *)
    issue "lock-acquire" "lockacq" "lock" "lockop";
    issue "lock-release" "lockrel" "unlock" "lockop";
    issue "membar" "membar" "sync" "syncop";
    issue "sendint" "sendint" "intr" "introp";
  ]

let spec = make ~name:"PIF" ~inputs ~outputs ~scenarios
