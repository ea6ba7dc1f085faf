open Ctrl_spec

let inputs =
  [
    "inmsg", [ "mioread"; "miowrite" ];
    "inmsgsrc", [ "home" ];
    "inmsgdest", [ "home" ];
    "inmsgres", [ "memq" ];
    "devst", [ "ready"; "busy" ];
  ]

let outputs =
  [
    "outmsg", [ "mdata"; "mack"; "mnack" ];
    "outmsgsrc", [ "home" ];
    "outmsgdest", [ "home" ];
    "outmsgres", [ "respq" ];
    "devop", [ "rd"; "wr" ];
  ]

let scen label inmsg devst outmsg devop =
  {
    label;
    when_ =
      [
        "inmsg", V inmsg; "inmsgsrc", V "home"; "inmsgdest", V "home";
        "inmsgres", V "memq"; "devst", V devst;
      ];
    emit =
      [
        "outmsg", Out outmsg; "outmsgsrc", Out "home";
        "outmsgdest", Out "home"; "outmsgres", Out "respq";
      ]
      @ (match devop with None -> [] | Some op -> [ "devop", Out op ]);
  }

let scenarios =
  [
    scen "ioread-ready" "mioread" "ready" "mdata" (Some "rd");
    scen "ioread-busy" "mioread" "busy" "mnack" None;
    scen "iowrite-ready" "miowrite" "ready" "mack" (Some "wr");
    scen "iowrite-busy" "miowrite" "busy" "mnack" None;
  ]

let spec = make ~name:"IO" ~inputs ~outputs ~scenarios
