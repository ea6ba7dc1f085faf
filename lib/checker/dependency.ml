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

let obs_reg = lazy (Obs.Metrics.registry "checker")
let obs_counter name = Obs.Metrics.counter (Lazy.force obs_reg) name

(* Read one (msg, src, dst) column triple off a row, resolving dont-care
   role cells from the message's canonical direction. *)
let triple_of_row schema row (mc, sc, dc) =
  let get c = row.(Schema.index schema c) in
  match get mc with
  | Value.Str msg ->
      let fallback f =
        match Protocol.Message.find msg with
        | Some m -> Some (Protocol.Topology.node_class_to_string (f m))
        | None -> None
      in
      let resolve cell f =
        match cell with
        | Value.Str s -> Some s
        | Value.Null -> fallback f
        | Value.Int _ | Value.Bool _ | Value.Float _ -> None
      in
      Option.bind (resolve (get sc) (fun m -> m.Protocol.Message.src))
        (fun src ->
          Option.map
            (fun dst -> msg, src, dst)
            (resolve (get dc) (fun m -> m.Protocol.Message.dst)))
  | Value.Null | Value.Int _ | Value.Bool _ | Value.Float _ -> None

let assign_of ~v (msg, src, dst) =
  Option.map
    (fun vc -> { msg; src; dst; vc })
    (Vcassign.lookup v ~msg ~src ~dst)

let individual ~v (c : Protocol.controller) =
  let tbl = Protocol.Ctrl_spec.table c.Protocol.spec in
  let schema = Table.schema tbl in
  let name = Protocol.Ctrl_spec.name c.Protocol.spec in
  let of_row i row =
    List.concat_map
      (fun in_triple ->
        match
          Option.bind (triple_of_row schema row in_triple) (assign_of ~v)
        with
        | None -> []
        | Some input ->
            List.filter_map
              (fun out_triple ->
                Option.bind
                  (Option.bind (triple_of_row schema row out_triple)
                     (assign_of ~v))
                  (fun output ->
                    Some
                      {
                        dep = { input; output };
                        provenance = Direct name;
                        origin = [ (name, i) ];
                      }))
              c.Protocol.out_triples)
      c.Protocol.in_triples
  in
  (* indexed scan, decoding one row at a time: the row number becomes the
     entry's origin so diagnostics can point back at the controller row *)
  let acc = ref [] in
  for i = Table.cardinality tbl - 1 downto 0 do
    acc := of_row i (Table.get tbl i) :: !acc
  done;
  List.concat !acc

let relocate placement d =
  let c = Protocol.Topology.canon_string placement in
  let move a = { a with src = c a.src; dst = c a.dst } in
  { input = move d.input; output = move d.output }

let merge_origin a b =
  a @ List.filter (fun x -> not (List.mem x a)) b

(* per-placement-relation match counts for the composition pass *)
let record_matches placement matched =
  Obs.Metrics.add
    (obs_counter
       ("compose_matches."
       ^ Protocol.Topology.placement_to_string placement))
    (List.length matched)

(* One side of a composition, flattened: every entry of every named
   table, its dependency relocated, with the position of its table. *)
type item = { table : int; name : string; entry : entry }

let flatten placement side =
  Array.of_list
    (List.concat
       (List.mapi
          (fun table (name, entries) ->
            List.map
              (fun e ->
                { table; name;
                  entry = { e with dep = relocate placement e.dep } })
              entries)
          side))

(* One row per item: the match key of [assign] of its dependency, then
   its position in [items] under column [id]. *)
let side_table ~name ~keys ~id items assign =
  Table.of_rows ~name
    (Schema.of_list (List.map fst keys @ [ id ]))
    (List.init (Array.length items) (fun i ->
         let a = assign items.(i).entry.dep in
         Array.of_list
           (List.map (fun (_, get) -> Value.Str (get a)) keys
           @ [ Value.Int i ])))

(* Composition is the join of [left]'s outputs with [right]'s inputs on
   (src, dst, vc[, msg]).  The join returns pairs left-major with matches
   in right order; a stable counting sort by (left table, right table)
   turns that into the nested loop over table pairs. *)
let compose ~ignore_messages ~placement left right =
  let l = flatten placement left and r = flatten placement right in
  let keys =
    [ ("src", fun a -> a.src); ("dst", fun a -> a.dst); ("vc", fun a -> a.vc) ]
    @ if ignore_messages then [] else [ ("msg", fun a -> a.msg) ]
  in
  let joined =
    Obs.Planlog.with_site "dependency.compose" @@ fun () ->
    Planner.equi_join
      ~on:(List.map (fun (k, _) -> k, k) keys)
      (side_table ~name:"outputs" ~keys ~id:"first" l (fun d -> d.output))
      (side_table ~name:"inputs" ~keys ~id:"second" r (fun d -> d.input))
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
  let n = Array.length first and tables = List.length right in
  let group k = (l.(first.(k)).table * tables) + r.(second.(k)).table in
  let start = Array.make ((List.length left * tables) + 1) 0 in
  for k = 0 to n - 1 do
    let g = group k + 1 in
    start.(g) <- start.(g) + 1
  done;
  for g = 1 to Array.length start - 1 do
    start.(g) <- start.(g) + start.(g - 1)
  done;
  let order = Array.make n 0 in
  for k = 0 to n - 1 do
    let g = group k in
    order.(start.(g)) <- k;
    start.(g) <- start.(g) + 1
  done;
  let exact = not ignore_messages in
  let matched =
    List.init n (fun i ->
        let a = l.(first.(order.(i))) and b = r.(second.(order.(i))) in
        {
          dep = { input = a.entry.dep.input; output = b.entry.dep.output };
          provenance =
            Composed { first = a.name; second = b.name; placement; exact };
          origin = merge_origin a.entry.origin b.entry.origin;
        })
  in
  record_matches placement matched;
  matched

let dedup ?(seen = Hashtbl.create 256) entries =
  List.filter
    (fun e ->
      if Hashtbl.mem seen e.dep then false
      else begin
        Hashtbl.add seen e.dep ();
        true
      end)
    entries

let protocol_dependency ?placements ?(interleavings = true)
    ?(fixpoint = false) ~v controllers =
  Obs.Trace.with_span ~cat:"checker"
    ~args:[ "assignment", Obs.Json.Str v.Vcassign.name ]
    "checker.dependency"
  @@ fun () ->
  let placements =
    Option.value placements ~default:Protocol.Topology.all_placements
  in
  let named =
    Obs.Trace.with_span ~cat:"checker" "checker.individual" @@ fun () ->
    let extracted =
      List.map
        (fun c ->
          Protocol.Ctrl_spec.name c.Protocol.spec, dedup (individual ~v c))
        controllers
    in
    List.iter
      (fun (name, deps) ->
        Obs.Metrics.add
          (obs_counter ("direct_deps." ^ name))
          (List.length deps))
      extracted;
    extracted
  in
  let modes = if interleavings then [ false; true ] else [ false ] in
  (* every quad placement, in each matching mode *)
  let compose_all left right =
    List.concat_map
      (fun placement ->
        List.concat_map
          (fun ignore_messages ->
            compose ~ignore_messages ~placement left right)
          modes)
      placements
  in
  let composed =
    Obs.Trace.with_span ~cat:"checker" "checker.compose" @@ fun () ->
    compose_all named named
  in
  let seen = Hashtbl.create 1024 in
  let base = dedup ~seen (List.concat_map snd named @ composed) in
  Obs.Metrics.set
    (Obs.Metrics.gauge (Lazy.force obs_reg) "dependency_table_rows")
    (float_of_int (List.length base));
  if not fixpoint then base
  else begin
    (* semi-naive: a round composes only the last round's new
       dependencies [delta] with the set they extend, on either side, and
       stops when it finds none *)
    let closure left right =
      compose_all [ "closure", left ] [ "closure", right ]
    in
    let rec iterate acc = function
      | [] -> acc
      | delta ->
          let next = acc @ delta in
          iterate next (dedup ~seen (closure delta next @ closure acc delta))
    in
    iterate base (dedup ~seen (closure base base))
  end

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
