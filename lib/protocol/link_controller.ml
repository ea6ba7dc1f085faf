open Ctrl_spec

(* Every message that crosses a quad boundary in some role. *)
let inter_quad_messages =
  Message.names
    (List.filter
       (fun m -> m.Message.src <> m.Message.dst)
       Message.all)

let inputs =
  [
    "inmsg", inter_quad_messages;
    "inport", [ "north"; "south"; "east"; "west" ];
    "linkst", [ "up"; "down" ];
  ]

let outputs =
  [
    "fwdmsg", inter_quad_messages;
    "outport", [ "fabric" ];
    "linkevent", [ "crcdrop" ];
  ]

let scenarios =
  [
    {
      label = "forward-up";
      when_ =
        [
          "inmsg", Among inter_quad_messages;
          "inport", Among [ "north"; "south"; "east"; "west" ];
          "linkst", V "up";
        ];
      emit = [ "fwdmsg", Copy "inmsg"; "outport", Out "fabric" ];
    };
    {
      label = "drop-down";
      when_ =
        [
          "inmsg", Among inter_quad_messages;
          "inport", Among [ "north"; "south"; "east"; "west" ];
          "linkst", V "down";
        ];
      emit = [ "linkevent", Out "crcdrop" ];
    };
  ]

let spec = make ~name:"LK" ~inputs ~outputs ~scenarios
