open Ctrl_spec

let inputs =
  [
    "inmsg", [ "sinv"; "sread"; "sflush"; "sdown"; "cinvreq"; "cwbreq"; "cfill" ];
    "inmsgsrc", [ "home"; "local" ];
    "inmsgdest", [ "remote"; "local" ];
    "inmsgres", [ "snpq"; "cacheq" ];
    "cachest", [ "M"; "E"; "S"; "I" ];
    "filltype", [ "shared"; "excl" ];
  ]

let outputs =
  [
    "respmsg", [ "idone"; "sdata"; "sack"; "snack"; "swbdata" ];
    "respmsgsrc", [ "remote" ];
    "respmsgdest", [ "home" ];
    "respmsgres", [ "respq" ];
    "nodemsg", [ "cinvack"; "cwbdata" ];
    "nodemsgsrc", [ "local" ];
    "nodemsgdest", [ "local" ];
    "nodemsgres", [ "cacheq" ];
    "nxtcachest", [ "M"; "E"; "S"; "I" ];
  ]

(* A snoop from the home directory, matched against the line state. *)
let snoop label inmsg cachest ~resp ~nxt =
  {
    label;
    when_ =
      [
        "inmsg", V inmsg; "inmsgsrc", V "home"; "inmsgdest", V "remote";
        "inmsgres", V "snpq"; "cachest", cachest;
      ];
    emit =
      [
        "respmsg", Out resp; "respmsgsrc", Out "remote";
        "respmsgdest", Out "home"; "respmsgres", Out "respq";
        "nxtcachest", Out nxt;
      ];
  }

(* An internal request from the node controller on the cache interface. *)
let internal label inmsg ?filltype ?(cachest : input_spec option) ~emit () =
  {
    label;
    when_ =
      [
        "inmsg", V inmsg; "inmsgsrc", V "local"; "inmsgdest", V "local";
        "inmsgres", V "cacheq";
      ]
      @ (match cachest with None -> [] | Some st -> [ "cachest", st ])
      @ (match filltype with None -> [] | Some f -> [ "filltype", V f ]);
    emit;
  }

let to_node msg =
  [
    "nodemsg", Out msg; "nodemsgsrc", Out "local"; "nodemsgdest", Out "local";
    "nodemsgres", Out "cacheq";
  ]

let scenarios =
  [
    (* invalidations: sinv targets clean sharers only *)
    snoop "sinv-shared" "sinv" (Among [ "S"; "E" ]) ~resp:"idone" ~nxt:"I";
    snoop "sinv-gone" "sinv" (V "I") ~resp:"idone" ~nxt:"I";
    (* read-downgrade of an owner *)
    snoop "sread-dirty" "sread" (V "M") ~resp:"sdata" ~nxt:"S";
    snoop "sread-clean" "sread" (V "E") ~resp:"sdata" ~nxt:"S";
    snoop "sread-gone" "sread" (Among [ "S"; "I" ]) ~resp:"snack" ~nxt:"I";
    (* flush of an owner *)
    snoop "sflush-dirty" "sflush" (V "M") ~resp:"swbdata" ~nxt:"I";
    snoop "sflush-clean" "sflush" (V "E") ~resp:"sdata" ~nxt:"I";
    snoop "sflush-gone" "sflush" (Among [ "S"; "I" ]) ~resp:"snack" ~nxt:"I";
    (* downgrade without data movement *)
    snoop "sdown-clean" "sdown" (V "E") ~resp:"sack" ~nxt:"S";
    snoop "sdown-dirty" "sdown" (V "M") ~resp:"sdata" ~nxt:"S";
    snoop "sdown-gone" "sdown" (Among [ "S"; "I" ]) ~resp:"snack" ~nxt:"I";
    (* node-controller internal interface *)
    internal "cinvreq-ack" "cinvreq"
      ~cachest:(Among [ "S"; "E"; "I" ])
      ~emit:(to_node "cinvack" @ [ "nxtcachest", Out "I" ])
      ();
    internal "cwbreq-data" "cwbreq" ~cachest:(V "M")
      ~emit:(to_node "cwbdata" @ [ "nxtcachest", Out "I" ])
      ();
    internal "cfill-shared" "cfill" ~filltype:"shared"
      ~emit:[ "nxtcachest", Out "S" ]
      ();
    internal "cfill-excl" "cfill" ~filltype:"excl"
      ~emit:[ "nxtcachest", Out "M" ]
      ();
  ]

let spec = make ~name:"C" ~inputs ~outputs ~scenarios
