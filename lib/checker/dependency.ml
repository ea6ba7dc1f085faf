open Relalg

type assign = { msg : string; src : string; dst : string; vc : string }
type dep = { input : assign; output : assign }

type provenance =
  | Direct of string
  | Composed of {
      first : string;
      second : string;
      placement : Protocol.Topology.placement;
      exact : bool;
    }

type entry = {
  dep : dep;
  provenance : provenance;
  origin : (string * int) list;
}

let obs_counter name =
  Obs.Metrics.counter (Obs.Metrics.registry "checker") name

module Itbl = Hashtbl.Make (Int)

(* [a] itself if index [i] fits, else a copy at least twice as long,
   padded with [x]. *)
let fit a i x =
  let n = Array.length a in
  if i < n then a
  else begin
    let b = Array.make (max (i + 1) (2 * n)) x in
    Array.blit a 0 b 0 n;
    b
  end

(* One analysis's codebook.  Every distinct assignment the analysis
   meets gets an int id, and every distinct string one code in
   [strings], shared by the four fields; everything after extraction
   keys on ids. *)
type book = {
  ids : (assign, int) Hashtbl.t;
  mutable assigns : assign array;  (* id -> assignment *)
  mutable fields : int array;  (* [4 * id + k]: code of src, dst, vc, msg *)
  strings : Dict.t;
  positions : Dict.t;  (* [Value.Int k] at code k, as long as a side *)
}

let book () =
  { ids = Hashtbl.create 256; assigns = [||]; fields = [||];
    strings = Dict.create (); positions = Dict.create () }

let intern book a =
  match Hashtbl.find_opt book.ids a with
  | Some id -> id
  | None ->
      let id = Hashtbl.length book.ids in
      book.assigns <- fit book.assigns id a;
      book.assigns.(id) <- a;
      book.fields <- fit book.fields ((4 * id) + 3) 0;
      List.iteri
        (fun k s -> book.fields.((4 * id) + k) <- Dict.intern book.strings (Value.Str s))
        [ a.src; a.dst; a.vc; a.msg ];
      Hashtbl.add book.ids a id;
      id

(* A dependency as the analysis carries it: its entry, and the ids of
   its input and output. *)
type node = { entry : entry; input : int; output : int }

let node book e =
  { entry = e; input = intern book e.dep.input; output = intern book e.dep.output }

(* A dependency's key: its input's id and its output's, in one int
   (ids count distinct assignments, far below 2^31). *)
let pair i o = (i lsl 31) lor o

(* adds [k] to [seen]; false when it was there already *)
let fresh seen k =
  let n = Itbl.length seen in
  Itbl.replace seen k ();
  Itbl.length seen > n

(* V as a hash index; the first row of a triple wins, as in lookup *)
let channels v =
  let vcs = Hashtbl.create 64 in
  List.iter
    (fun (a : Vcassign.assignment) ->
      if not (Hashtbl.mem vcs (a.msg, a.src, a.dst)) then
        Hashtbl.add vcs (a.msg, a.src, a.dst) a.vc)
    v.Vcassign.rows;
  vcs

(* For one column triple of [tbl]: the id of the assignment row [i]
   carries there, or -1, if V ([vcs]) gives it a channel, with a
   dont-care role cell resolved from the message's canonical direction.
   Each distinct code triple is decoded and looked up once. *)
let resolver book vcs tbl (mc, sc, dc) =
  let col c =
    let j = Schema.index (Table.schema tbl) c in
    (Table.dict tbl j, Table.codes tbl j)
  in
  let (dm, cm), (ds, cs), (dd, cd) = (col mc, col sc, col dc) in
  let resolve i =
    match Dict.value dm cm.(i) with
    | Value.Str msg -> (
        let role d c f =
          match Dict.value d c with
          | Value.Str s -> Some s
          | Value.Null ->
              Option.map
                (fun m -> Protocol.Topology.node_class_to_string (f m))
                (Protocol.Message.find msg)
          | Value.Int _ | Value.Bool _ | Value.Float _ -> None
        in
        match
          ( role ds cs.(i) (fun m -> m.Protocol.Message.src),
            role dd cd.(i) (fun m -> m.Protocol.Message.dst) )
        with
        | Some src, Some dst -> (
            match Hashtbl.find_opt vcs (msg, src, dst) with
            | Some vc -> intern book { msg; src; dst; vc }
            | None -> -1)
        | _ -> -1)
    | Value.Null | Value.Int _ | Value.Bool _ | Value.Float _ -> -1
  in
  (* a dense memo: the three columns' dictionaries are the spec's
     column tables plus NULL, a few values each *)
  let ns = Dict.size ds and nd = Dict.size dd in
  let memo = Array.make (Dict.size dm * ns * nd) (-2) in
  fun i ->
    let k = (((cm.(i) * ns) + cs.(i)) * nd) + cd.(i) in
    match memo.(k) with
    | -2 ->
        let id = resolve i in
        memo.(k) <- id;
        id
    | id -> id

(* The individual dependency table of [c]: rows in order, then input
   triples, then output triples, with a node built only for a pair of
   ids [keep] accepts. *)
let extract book vcs ~keep (c : Protocol.controller) =
  let tbl = Protocol.Ctrl_spec.table c.spec in
  let name = Protocol.Ctrl_spec.name c.spec in
  let ins = List.map (resolver book vcs tbl) c.in_triples
  and outs = List.map (resolver book vcs tbl) c.out_triples in
  let nodes = ref [] in
  for i = 0 to Table.cardinality tbl - 1 do
    List.iter
      (fun input ->
        let input = input i in
        if input >= 0 then
          List.iter
            (fun output ->
              let output = output i in
              if output >= 0 && keep input output then begin
                let dep =
                  { input = book.assigns.(input); output = book.assigns.(output) }
                in
                nodes :=
                  { entry = { dep; provenance = Direct name; origin = [ (name, i) ] };
                    input; output }
                  :: !nodes
              end)
            outs)
      ins
  done;
  List.rev !nodes

let individual ~v c =
  let keep _ _ = true in
  List.map (fun n -> n.entry) (extract (book ()) (channels v) ~keep c)

(* [a] with its roles rewritten to their quad representatives *)
let move placement a =
  let c = Protocol.Topology.canon_string placement in
  { a with src = c a.src; dst = c a.dst }

let relocate placement (d : dep) =
  { input = move placement d.input; output = move placement d.output }

(* One placement's relocation, as a map from id to id filled the first
   time an id is met, and its two counters. *)
type reloc = {
  placement : Protocol.Topology.placement;
  mutable map : int array;  (* -1: not met yet *)
  matches : Obs.Metrics.counter;
  added : Obs.Metrics.counter;
}

let reloc placement =
  let p = Protocol.Topology.placement_to_string placement in
  { placement; map = [||]; matches = obs_counter ("compose_matches." ^ p);
    added = obs_counter ("compose_new." ^ p) }

let relocated book r id =
  r.map <- fit r.map id (-1);
  match r.map.(id) with
  | -1 ->
      let id' = intern book (move r.placement book.assigns.(id)) in
      r.map.(id) <- id';
      id'
  | id' -> id'

(* A composed dependency's rows are its derivation flattened: the left
   parent's rows, then the right parent's that are not among them. *)
let derive a b = a @ List.filter (fun r -> not (List.mem r a)) b

(* One side of a composition: named tables of nodes, and the side
   flattened under each placement met so far. *)
type item = { table : int; node : node; input : int; output : int; mutable size : int }

type side = {
  names : string array;
  tables : node list list;
  mutable flats : (reloc * item array) list;
}

let side tables =
  { names = Array.of_list (List.map fst tables); tables = List.map snd tables;
    flats = [] }

(* [s] flattened under [r]: every node of every table, relocated (as ids
   [input] and [output]), with the position of its table.  Only the
   first node of each relocated dependency is kept, and [size] counts
   the nodes it stands for.  No first occurrence of a composed
   dependency is lost: nodes run table by table, so if [n'] follows [n]
   with the same relocated dependency, [n'] composes the same
   dependencies as [n] with every partner, later in nested-loop order
   (left table, right table, left entry, right entry).  Computed once
   per side and placement. *)
let flatten book r s =
  match List.assq_opt r s.flats with
  | Some items -> items
  | None ->
      let opener = Itbl.create 256 and items = ref [] in
      List.iteri
        (fun table nodes ->
          List.iter
            (fun (n : node) ->
              let input = relocated book r n.input
              and output = relocated book r n.output in
              let k = pair input output in
              match Itbl.find_opt opener k with
              | Some it -> it.size <- it.size + 1
              | None ->
                  let it = { table; node = n; input; output; size = 1 } in
                  Itbl.add opener k it;
                  items := it :: !items)
            nodes)
        s.tables;
      let items = Array.of_list (List.rev !items) in
      s.flats <- (r, items) :: s.flats;
      items

(* One row per item: the (src, dst, vc, msg) of assignment [assign it],
   then the item's position under column [id].  Each key column gets a
   dictionary of only its own values, in order of first appearance, so
   the planner's estimates see this side's distinct counts; position k
   is code k of the shared positions dictionary. *)
let side_table book ~name ~id items assign =
  let n = Array.length items in
  let local = Array.make (Dict.size book.strings) (-1) in
  let column k =
    let dict = Dict.create () and codes = Array.make n 0 in
    Array.fill local 0 (Array.length local) (-1);
    Array.iteri
      (fun p it ->
        let g = book.fields.((4 * assign it) + k) in
        if local.(g) < 0 then
          local.(g) <- Dict.intern dict (Dict.value book.strings g);
        codes.(p) <- local.(g))
      items;
    (dict, codes)
  in
  let pos = book.positions in
  while Dict.size pos < n do
    ignore (Dict.intern pos (Value.Int (Dict.size pos)) : int)
  done;
  Table.of_columns ~name
    (Schema.of_list [ "src"; "dst"; "vc"; "msg"; id ])
    ~nrows:n
    [| column 0; column 1; column 2; column 3; (pos, Array.init n Fun.id) |]

(* The compositions of [left] and [right] under every placement and
   mode, in that order.  Each is one {!Planner.equi_join} per mode on
   one side-table pair, on (src, dst, vc), plus msg when exact.  The
   join returns matches left-major with matches in right order, and a
   stable counting sort by (left table, right table) restores the
   nested loop over table pairs.  A match whose dependency is in [seen]
   builds nothing, and a new one joins [seen]: each dependency is kept
   at its first match. *)
let compose book seen ~modes ~relocs left right =
  let kept = ref [] in
  let groups = (Array.length left.names * Array.length right.names) + 1 in
  List.iter
    (fun r ->
      let l = flatten book r left and rt = flatten book r right in
      let outputs = side_table book ~name:"outputs" ~id:"first" l (fun it -> it.output)
      and inputs = side_table book ~name:"inputs" ~id:"second" rt (fun it -> it.input) in
      let added = ref 0 in
      List.iter
        (fun exact ->
          let keys = [ "src"; "dst"; "vc" ] @ if exact then [ "msg" ] else [] in
          (* matching ignoring messages joins views without the msg column *)
          let view t id =
            if exact then t
            else Table.select_columns (Schema.of_list (keys @ [ id ])) t [ 0; 1; 2; 4 ]
          in
          let joined =
            Obs.Planlog.with_site "dependency.compose" @@ fun () ->
            Planner.equi_join
              ~on:(List.map (fun k -> (k, k)) keys)
              (view outputs "first") (view inputs "second")
          in
          (* a position's code is the position *)
          let positions id = Table.codes joined (Schema.index (Table.schema joined) id) in
          let first = positions "first" and second = positions "second" in
          let n = Table.cardinality joined and matches = ref 0 in
          let group k =
            (l.(first.(k)).table * Array.length right.names) + rt.(second.(k)).table
          in
          let start = Array.make groups 0 in
          for k = 0 to n - 1 do
            let g = group k + 1 in
            start.(g) <- start.(g) + 1;
            matches := !matches + (l.(first.(k)).size * rt.(second.(k)).size)
          done;
          Obs.Metrics.add r.matches !matches;
          for g = 1 to groups - 1 do
            start.(g) <- start.(g) + start.(g - 1)
          done;
          let order = Array.make n 0 in
          for k = 0 to n - 1 do
            let g = group k in
            order.(start.(g)) <- k;
            start.(g) <- start.(g) + 1
          done;
          Array.iter
            (fun k ->
              let a = l.(first.(k)) and b = rt.(second.(k)) in
              if fresh seen (pair a.input b.output) then begin
                let dep =
                  { input = book.assigns.(a.input); output = book.assigns.(b.output) }
                in
                incr added;
                kept :=
                  { entry =
                      { dep;
                        provenance =
                          Composed
                            { first = left.names.(a.table);
                              second = right.names.(b.table);
                              placement = r.placement; exact };
                        origin = derive a.node.entry.origin b.node.entry.origin };
                    input = a.input; output = b.output }
                  :: !kept
              end)
            order)
        (List.map not modes);
      Obs.Metrics.add r.added !added)
    relocs;
  List.rev !kept

let analyze book ?(placements = Protocol.Topology.all_placements)
    ?(interleavings = true) ?(fixpoint = false) tables =
  let modes = if interleavings then [ false; true ] else [ false ] in
  let firsts seen = List.filter (fun (n : node) -> fresh seen (pair n.input n.output)) in
  let named =
    List.map
      (fun (name, nodes) ->
        let nodes = firsts (Itbl.create 64) nodes in
        Obs.Metrics.add (obs_counter ("direct_deps." ^ name)) (List.length nodes);
        (name, nodes))
      tables
  in
  let seen = Itbl.create 1024 in
  let compose = compose book seen ~modes ~relocs:(List.map reloc placements) in
  let direct = firsts seen (List.concat_map snd named) in
  let composed =
    Obs.Trace.with_span ~cat:"checker" "checker.compose" @@ fun () ->
    let named = side named in
    compose named named
  in
  let base = direct @ composed in
  Obs.Metrics.set
    (Obs.Metrics.gauge (Obs.Metrics.registry "checker") "dependency_table_rows")
    (float_of_int (List.length base));
  (* semi-naive: with A the dependencies found before the last round and
     Δ its new ones, a round is Δ ⋈ (A ∪ Δ), then A ⋈ Δ, each minus
     everything found so far; it stops when a round finds nothing.
     Every side is one value, so it is flattened once per placement. *)
  let closure nodes = side [ ("closure", nodes) ] in
  let rec iterate acc acc_side = function
    | [] -> acc
    | delta ->
        let next = acc @ delta in
        let delta_side = closure delta and next_side = closure next in
        let extended = compose delta_side next_side in
        iterate next next_side (extended @ compose acc_side delta_side)
  in
  let nodes =
    if fixpoint then
      let base_side = closure base in
      iterate base base_side (compose base_side base_side)
    else base
  in
  List.map (fun n -> n.entry) nodes

let of_tables ?placements ?interleavings ?fixpoint tables =
  let book = book () in
  analyze book ?placements ?interleavings ?fixpoint
    (List.map (fun (name, entries) -> (name, List.map (node book) entries)) tables)

let protocol_dependency ?placements ?interleavings ?fixpoint ~v controllers =
  Obs.Trace.with_span ~cat:"checker"
    ~args:[ "assignment", Obs.Json.Str v.Vcassign.name ]
    "checker.dependency"
  @@ fun () ->
  let book = book () in
  analyze book ?placements ?interleavings ?fixpoint
    (Obs.Trace.with_span ~cat:"checker" "checker.individual" @@ fun () ->
     let vcs = channels v in
     List.map
       (fun (c : Protocol.controller) ->
         (* each table's first node of each dependency is all that
            [analyze] keeps of it *)
         let seen = Itbl.create 64 in
         let keep i o = fresh seen (pair i o) in
         (Protocol.Ctrl_spec.name c.spec, extract book vcs ~keep c))
       controllers)

let dep_schema =
  Schema.of_list
    [ "inmsg"; "insrc"; "indst"; "invc"; "outmsg"; "outsrc"; "outdst";
      "outvc" ]

let to_table ~name entries =
  let row e =
    let i = e.dep.input and o = e.dep.output in
    Row.strings [ i.msg; i.src; i.dst; i.vc; o.msg; o.src; o.dst; o.vc ]
  in
  Table.of_rows ~name dep_schema (List.map row entries)

let pp_assign fmt a =
  Format.fprintf fmt "(%s, %s, %s, %s)" a.msg a.src a.dst a.vc

let pp_dep fmt (d : dep) =
  Format.fprintf fmt "%a -> %a" pp_assign d.input pp_assign d.output

let pp_provenance fmt = function
  | Direct n -> Format.fprintf fmt "direct from %s" n
  | Composed { first; second; placement; exact } ->
      Format.fprintf fmt "composed %s . %s under %s%s" first second
        (Protocol.Topology.placement_to_string placement)
        (if exact then "" else " ignoring messages")

let pp_origin fmt origin =
  Format.pp_print_list
    ~pp_sep:(fun fmt () -> Format.pp_print_string fmt " + ")
    (fun fmt (table, row) -> Format.fprintf fmt "%s[row %d]" table row)
    fmt origin
