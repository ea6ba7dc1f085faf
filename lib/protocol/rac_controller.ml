open Ctrl_spec

let inputs =
  [
    "inmsg", [ "sinv"; "sread"; "sflush"; "sdown"; "evict"; "fillin" ];
    "inmsgsrc", [ "home"; "local" ];
    "inmsgdest", [ "remote"; "local" ];
    "inmsgres", [ "snpq"; "evq"; "fillq" ];
    "racst", [ "M"; "E"; "S"; "I" ];
    "racfull", [ "yes"; "no" ];
  ]

let outputs =
  [
    "respmsg", [ "idone"; "sdata"; "sack"; "snack"; "swbdata" ];
    "respmsgsrc", [ "remote" ];
    "respmsgdest", [ "home" ];
    "respmsgres", [ "respq" ];
    "evictmsg", [ "racevict"; "wb" ];
    "evictmsgsrc", [ "local" ];
    "evictmsgdest", [ "home" ];
    "evictmsgres", [ "reqq" ];
    "fwdmsg", [ "racfill" ];
    "fwdmsgsrc", [ "local" ];
    "fwdmsgdest", [ "local" ];
    "fwdmsgres", [ "cacheq" ];
    "nxtracst", [ "M"; "E"; "S"; "I" ];
  ]

let snoop label inmsg racst ~resp ~nxt =
  {
    label;
    when_ =
      [
        "inmsg", V inmsg; "inmsgsrc", V "home"; "inmsgdest", V "remote";
        "inmsgres", V "snpq"; "racst", racst;
      ];
    emit =
      [
        "respmsg", Out resp; "respmsgsrc", Out "remote";
        "respmsgdest", Out "home"; "respmsgres", Out "respq";
        "nxtracst", Out nxt;
      ];
  }

let evict label racst ~msg ~nxt =
  {
    label;
    when_ =
      [
        "inmsg", V "evict"; "inmsgsrc", V "local"; "inmsgdest", V "local";
        "inmsgres", V "evq"; "racst", racst; "racfull", V "yes";
      ];
    emit =
      [
        "evictmsg", Out msg; "evictmsgsrc", Out "local";
        "evictmsgdest", Out "home"; "evictmsgres", Out "reqq";
        "nxtracst", Out nxt;
      ];
  }

let scenarios =
  [
    snoop "sinv-shared" "sinv" (Among [ "S"; "E" ]) ~resp:"idone" ~nxt:"I";
    snoop "sinv-gone" "sinv" (V "I") ~resp:"idone" ~nxt:"I";
    snoop "sread-dirty" "sread" (V "M") ~resp:"sdata" ~nxt:"S";
    snoop "sread-clean" "sread" (V "E") ~resp:"sdata" ~nxt:"S";
    snoop "sread-gone" "sread" (Among [ "S"; "I" ]) ~resp:"snack" ~nxt:"I";
    snoop "sflush-dirty" "sflush" (V "M") ~resp:"swbdata" ~nxt:"I";
    snoop "sflush-clean" "sflush" (V "E") ~resp:"sdata" ~nxt:"I";
    snoop "sflush-gone" "sflush" (Among [ "S"; "I" ]) ~resp:"snack" ~nxt:"I";
    snoop "sdown-clean" "sdown" (V "E") ~resp:"sack" ~nxt:"S";
    snoop "sdown-dirty" "sdown" (V "M") ~resp:"sdata" ~nxt:"S";
    snoop "sdown-gone" "sdown" (Among [ "S"; "I" ]) ~resp:"snack" ~nxt:"I";
    (* capacity evictions from the background engine *)
    evict "evict-shared" (Among [ "S"; "E" ]) ~msg:"racevict" ~nxt:"I";
    evict "evict-dirty" (V "M") ~msg:"wb" ~nxt:"I";
    (* fills delivered to the requesting node inside the quad *)
    {
      label = "fill-forward";
      when_ =
        [
          "inmsg", V "fillin"; "inmsgsrc", V "local"; "inmsgdest", V "local";
          "inmsgres", V "fillq";
        ];
      emit =
        [
          "fwdmsg", Out "racfill"; "fwdmsgsrc", Out "local";
          "fwdmsgdest", Out "local"; "fwdmsgres", Out "cacheq";
          "nxtracst", Out "S";
        ];
    };
  ]

let spec = make ~name:"RAC" ~inputs ~outputs ~scenarios
