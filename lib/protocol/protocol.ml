module Topology = Topology
module Message = Message
module State = State
module Ctrl_spec = Ctrl_spec
module Dir_controller = Dir_controller
module Mem_controller = Mem_controller
module Cache_controller = Cache_controller
module Node_controller = Node_controller
module Rac_controller = Rac_controller
module Io_controller = Io_controller
module Pif_controller = Pif_controller
module Link_controller = Link_controller

type controller = {
  spec : Ctrl_spec.t;
  location : Topology.node_class;
  in_triples : (string * string * string) list;
  out_triples : (string * string * string) list;
  include_in_deadlock : bool;
}

let directory =
  {
    spec = Dir_controller.spec;
    location = Topology.Home;
    in_triples = [ "inmsg", "inmsgsrc", "inmsgdest" ];
    out_triples =
      [
        "locmsg", "locmsgsrc", "locmsgdest";
        "remmsg", "remmsgsrc", "remmsgdest";
        "memmsg", "memmsgsrc", "memmsgdest";
      ];
    include_in_deadlock = true;
  }

let memory =
  {
    spec = Mem_controller.spec;
    location = Topology.Home;
    in_triples = [ "inmsg", "inmsgsrc", "inmsgdest" ];
    out_triples = [ "outmsg", "outmsgsrc", "outmsgdest" ];
    include_in_deadlock = true;
  }

let cache =
  {
    spec = Cache_controller.spec;
    location = Topology.Remote;
    in_triples = [ "inmsg", "inmsgsrc", "inmsgdest" ];
    out_triples =
      [ "respmsg", "respmsgsrc", "respmsgdest";
        "nodemsg", "nodemsgsrc", "nodemsgdest" ];
    include_in_deadlock = true;
  }

let node =
  {
    spec = Node_controller.spec;
    location = Topology.Local;
    in_triples = [ "inmsg", "inmsgsrc", "inmsgdest" ];
    out_triples =
      [ "cachemsg", "cachemsgsrc", "cachemsgdest";
        "netmsg", "netmsgsrc", "netmsgdest";
        "ackmsg", "ackmsgsrc", "ackmsgdest" ];
    include_in_deadlock = true;
  }

let rac =
  {
    spec = Rac_controller.spec;
    location = Topology.Remote;
    in_triples = [ "inmsg", "inmsgsrc", "inmsgdest" ];
    out_triples =
      [
        "respmsg", "respmsgsrc", "respmsgdest";
        "evictmsg", "evictmsgsrc", "evictmsgdest";
        "fwdmsg", "fwdmsgsrc", "fwdmsgdest";
      ];
    include_in_deadlock = true;
  }

let io =
  {
    spec = Io_controller.spec;
    location = Topology.Home;
    in_triples = [ "inmsg", "inmsgsrc", "inmsgdest" ];
    out_triples = [ "outmsg", "outmsgsrc", "outmsgdest" ];
    include_in_deadlock = true;
  }

let pif =
  {
    spec = Pif_controller.spec;
    location = Topology.Local;
    in_triples = [];
    out_triples = [ "reqmsg", "reqmsgsrc", "reqmsgdest" ];
    include_in_deadlock = true;
  }

let link =
  {
    spec = Link_controller.spec;
    location = Topology.Home;
    in_triples = [];
    out_triples = [];
    include_in_deadlock = false;
  }

let controllers = [ directory; memory; cache; node; rac; io; pif; link ]

let deadlock_controllers =
  List.filter (fun c -> c.include_in_deadlock) controllers

let find name =
  List.find_opt (fun c -> Ctrl_spec.name c.spec = name) controllers

let tables () = List.map (fun c -> Ctrl_spec.table c.spec) controllers

let database () =
  Message.register (Relalg.Database.of_tables (tables ()))
