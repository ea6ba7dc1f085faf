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

(* For one column triple of [tbl]: the assignment row [i] carries there,
   if V ([vcs]) gives it a channel, with a dont-care role cell resolved
   from the message's canonical direction.  Each distinct code triple is
   decoded and looked up once. *)
let resolver vcs tbl (mc, sc, dc) =
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
        | Some src, Some dst ->
            Option.map
              (fun vc -> { msg; src; dst; vc })
              (Hashtbl.find_opt vcs (msg, src, dst))
        | _ -> None)
    | Value.Null | Value.Int _ | Value.Bool _ | Value.Float _ -> None
  in
  let memo = Hashtbl.create 16 in
  fun i ->
    let k = (cm.(i), cs.(i), cd.(i)) in
    match Hashtbl.find_opt memo k with
    | Some a -> a
    | None ->
        let a = resolve i in
        Hashtbl.add memo k a;
        a

let individual ~v (c : Protocol.controller) =
  let tbl = Protocol.Ctrl_spec.table c.spec in
  let name = Protocol.Ctrl_spec.name c.spec in
  (* V as a hash index; the first row of a triple wins, as in lookup *)
  let vcs = Hashtbl.create 64 in
  List.iter
    (fun (a : Vcassign.assignment) ->
      if not (Hashtbl.mem vcs (a.msg, a.src, a.dst)) then
        Hashtbl.add vcs (a.msg, a.src, a.dst) a.vc)
    v.Vcassign.rows;
  let ins = List.map (resolver vcs tbl) c.in_triples
  and outs = List.map (resolver vcs tbl) c.out_triples in
  (* rows in order, then input triples, then output triples *)
  List.concat
    (List.init (Table.cardinality tbl) (fun i ->
         List.concat_map
           (fun input ->
             match input i with
             | None -> []
             | Some input ->
                 List.filter_map
                   (fun output ->
                     Option.map
                       (fun output ->
                         { dep = { input; output };
                           provenance = Direct name;
                           origin = [ (name, i) ] })
                       (output i))
                   outs)
           ins))

let relocate placement d =
  let c = Protocol.Topology.canon_string placement in
  let move a = { a with src = c a.src; dst = c a.dst } in
  { input = move d.input; output = move d.output }

(* A pass numbers the assignments it meets, so a dependency's key is a
   pair of integers: its input's number and its output's. *)
let key ids d =
  let id a =
    match Hashtbl.find_opt ids a with
    | Some i -> i
    | None ->
        let i = Hashtbl.length ids in
        Hashtbl.add ids a i;
        i
  in
  (id d.input, id d.output)

(* adds [k] to [seen]; false when it was there already *)
let fresh seen k = (not (Hashtbl.mem seen k)) && (Hashtbl.add seen k (); true)

(* A composed dependency's rows are its derivation flattened: the left
   parent's rows, then the right parent's that are not among them. *)
let derive a b = a @ List.filter (fun r -> not (List.mem r a)) b

(* One side of a composition: every entry of every named table,
   relocated, with the position of its table.  With [distinct], only the
   first entry of each relocated dependency is kept, and [size] counts
   the entries it stands for.  No first occurrence of a composed
   dependency is lost: entries run table by table, so if [e'] follows
   [e] with the same relocated dependency, [e'] composes the same
   dependencies as [e] with every partner, later in nested-loop order
   (left table, right table, left entry, right entry). *)
type item = { table : int; entry : entry; key : int * int; mutable size : int }

let flatten ids ~distinct placement side =
  let opener = Hashtbl.create 256 in
  Array.of_list
    (List.concat
       (List.mapi
          (fun table (_, entries) ->
            List.filter_map
              (fun e ->
                let dep = relocate placement e.dep in
                let key = key ids dep in
                match Hashtbl.find_opt opener key with
                | Some it ->
                    it.size <- it.size + 1;
                    None
                | None ->
                    let it = { table; entry = { e with dep }; key; size = 1 } in
                    if distinct then Hashtbl.add opener key it;
                    Some it)
              entries)
          side))

(* One row per item: the (src, dst, vc, msg) of [assign] of its
   dependency, then its position in [items] under column [id]. *)
let side_table ~name ~id items assign =
  Table.of_rows ~name
    (Schema.of_list [ "src"; "dst"; "vc"; "msg"; id ])
    (List.init (Array.length items) (fun i ->
         let a = assign items.(i).entry.dep in
         [| Value.Str a.src; Value.Str a.dst; Value.Str a.vc; Value.Str a.msg;
            Value.Int i |]))

(* Every match of [left]'s outputs against [right]'s inputs under
   [placement], as [f ~exact a b] for the left and right items: one
   {!Planner.equi_join} per mode on one side-table pair, on (src, dst,
   vc), plus msg when exact.  Matches come mode by mode in nested-loop
   order: the join returns them left-major with matches in right order,
   and a stable counting sort by (left table, right table) restores the
   loop over table pairs. *)
let iter_matches ids ~distinct ~modes ~placement left right f =
  let l = flatten ids ~distinct placement left
  and r = flatten ids ~distinct placement right in
  let outputs = side_table ~name:"outputs" ~id:"first" l (fun d -> d.output)
  and inputs = side_table ~name:"inputs" ~id:"second" r (fun d -> d.input) in
  let tables = List.length right in
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
      (* column [id] of the join, decoded once per distinct value *)
      let positions id =
        let j = Schema.index (Table.schema joined) id in
        let dict = Table.dict joined j and codes = Table.codes joined j in
        let of_code =
          Array.init (Dict.size dict) (fun c ->
              match Dict.value dict c with Value.Int i -> i | _ -> assert false)
        in
        Array.init (Table.cardinality joined) (fun k -> of_code.(codes.(k)))
      in
      let first = positions "first" and second = positions "second" in
      let n = Table.cardinality joined and matches = ref 0 in
      let group k = (l.(first.(k)).table * tables) + r.(second.(k)).table in
      let start = Array.make ((List.length left * tables) + 1) 0 in
      for k = 0 to n - 1 do
        let g = group k + 1 in
        start.(g) <- start.(g) + 1;
        matches := !matches + (l.(first.(k)).size * r.(second.(k)).size)
      done;
      Obs.Metrics.add
        (obs_counter
           ("compose_matches." ^ Protocol.Topology.placement_to_string placement))
        !matches;
      for g = 1 to Array.length start - 1 do
        start.(g) <- start.(g) + start.(g - 1)
      done;
      let order = Array.make n 0 in
      for k = 0 to n - 1 do
        let g = group k in
        order.(start.(g)) <- k;
        start.(g) <- start.(g) + 1
      done;
      Array.iter (fun k -> f ~exact l.(first.(k)) r.(second.(k))) order)
    (List.map not modes)

(* The compositions of [left] and [right] under every placement and
   mode, in that order.  With [seen], a match whose dependency is in
   [seen] builds nothing, and a new one joins [seen]: each dependency is
   kept at its first match. *)
let compose_sides ids ?seen ~modes ~placements left right =
  let names side = Array.of_list (List.map fst side) in
  let l_names = names left and r_names = names right in
  let keep = match seen with None -> fun _ -> true | Some s -> fresh s in
  let kept = ref [] in
  List.iter
    (fun placement ->
      let added = ref 0 in
      iter_matches ids ~distinct:(seen <> None) ~modes ~placement left right
        (fun ~exact a b ->
          if keep (fst a.key, snd b.key) then begin
            let dep = { input = a.entry.dep.input; output = b.entry.dep.output } in
            incr added;
            kept :=
              { dep;
                provenance =
                  Composed
                    { first = l_names.(a.table); second = r_names.(b.table);
                      placement; exact };
                origin = derive a.entry.origin b.entry.origin }
              :: !kept
          end);
      Obs.Metrics.add
        (obs_counter
           ("compose_new." ^ Protocol.Topology.placement_to_string placement))
        !added)
    placements;
  List.rev !kept

let compose ~ignore_messages ~placement left right =
  compose_sides (Hashtbl.create 256) ~modes:[ ignore_messages ]
    ~placements:[ placement ] left right

let of_tables ?(placements = Protocol.Topology.all_placements)
    ?(interleavings = true) ?(fixpoint = false) tables =
  let modes = if interleavings then [ false; true ] else [ false ] in
  let ids = Hashtbl.create 256 in
  let firsts seen = List.filter (fun e -> fresh seen (key ids e.dep)) in
  let named =
    List.map
      (fun (name, entries) ->
        let entries = firsts (Hashtbl.create 64) entries in
        Obs.Metrics.add (obs_counter ("direct_deps." ^ name)) (List.length entries);
        (name, entries))
      tables
  in
  let seen = Hashtbl.create 1024 in
  let compose left right = compose_sides ids ~seen ~modes ~placements left right in
  let direct = firsts seen (List.concat_map snd named) in
  let composed =
    Obs.Trace.with_span ~cat:"checker" "checker.compose" @@ fun () ->
    compose named named
  in
  let base = direct @ composed in
  Obs.Metrics.set
    (Obs.Metrics.gauge (Obs.Metrics.registry "checker") "dependency_table_rows")
    (float_of_int (List.length base));
  (* semi-naive: with A the dependencies found before the last round and
     Δ its new ones, a round is Δ ⋈ (A ∪ Δ), then A ⋈ Δ, each minus
     everything found so far; it stops when a round finds nothing *)
  let closure left right = compose [ ("closure", left) ] [ ("closure", right) ] in
  let rec iterate acc = function
    | [] -> acc
    | delta ->
        let next = acc @ delta in
        let extended = closure delta next in
        iterate next (extended @ closure acc delta)
  in
  if fixpoint then iterate base (closure base base) else base

let protocol_dependency ?placements ?interleavings ?fixpoint ~v controllers =
  Obs.Trace.with_span ~cat:"checker"
    ~args:[ "assignment", Obs.Json.Str v.Vcassign.name ]
    "checker.dependency"
  @@ fun () ->
  of_tables ?placements ?interleavings ?fixpoint
    (Obs.Trace.with_span ~cat:"checker" "checker.individual" @@ fun () ->
     List.map
       (fun (c : Protocol.controller) ->
         (Protocol.Ctrl_spec.name c.spec, individual ~v c))
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

let pp_dep fmt d =
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
