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

let matches ~ignore_messages out inp =
  out.src = inp.src && out.dst = inp.dst && out.vc = inp.vc
  && (ignore_messages || out.msg = inp.msg)

(* Pure pairwise composition — no observability recording, so it is safe
   to run on pool worker domains; callers account the match counts after
   the join. *)
let merge_origin a b =
  a @ List.filter (fun x -> not (List.mem x a)) b

let compose_core ~ignore_messages ~placement (n1, t1) (n2, t2) =
  let reloc t = List.map (fun e -> (relocate placement e.dep, e.origin)) t in
  let t1 = reloc t1 and t2 = reloc t2 in
  let provenance =
    Composed
      { first = n1; second = n2; placement; exact = not ignore_messages }
  in
  let entry (r, ro) (s, so) =
    {
      dep = { input = r.input; output = s.output };
      provenance;
      origin = merge_origin ro so;
    }
  in
  if List.compare_length_with t2 8 > 0 then begin
    (* hash-join shape: bucket the inner side by its match key once
       instead of scanning it per outer entry.  Buckets keep [t2] order,
       and [t1] drives iteration, so the output order is exactly the
       nested loop's. *)
    let key a =
      a.src ^ "\x00" ^ a.dst ^ "\x00" ^ a.vc
      ^ if ignore_messages then "" else "\x00" ^ a.msg
    in
    let buckets = Hashtbl.create (2 * List.length t2) in
    List.iter
      (fun ((s, _) as e) ->
        let k = key s.input in
        Hashtbl.replace buckets k
          (match Hashtbl.find_opt buckets k with
          | Some tail -> e :: tail
          | None -> [ e ]))
      (List.rev t2);
    List.concat_map
      (fun ((r, _) as outer) ->
        match Hashtbl.find_opt buckets (key r.output) with
        | None -> []
        | Some inners -> List.map (entry outer) inners)
      t1
  end
  else
    List.concat_map
      (fun ((r, _) as outer) ->
        List.filter_map
          (fun ((s, _) as inner) ->
            if matches ~ignore_messages r.output s.input then
              Some (entry outer inner)
            else None)
          t2)
      t1

(* per-placement-relation match counts for the composition pass *)
let record_matches placement matched =
  Obs.Metrics.add
    (obs_counter
       ("compose_matches."
       ^ Protocol.Topology.placement_to_string placement))
    (List.length matched)

(* One plan-observatory record per composition.  Compose is a
   programmatic join that bypasses the SQL planner, but its physical
   choice — hash-bucketed vs nested loop, decided by the inner
   cardinality — is a plan decision the fingerprint must witness, so
   plan diffs catch a silent path flip here too.  Recorded
   from the spawning domain only (this wrapper, not [compose_core],
   which runs on pool workers). *)
let record_plan ~ignore_messages ~placement (n1, t1) (n2, t2) matched total_ns =
  if Obs.Config.on () then begin
    let len1 = List.length t1 and len2 = List.length t2 in
    let hash_path = len2 > 8 in
    let place = Protocol.Topology.placement_to_string placement in
    let fingerprint =
      Obs.Planlog.fingerprint
        [
          "compose";
          n1;
          n2;
          place;
          (if hash_path then "hash-bucket" else "nested-loop");
          (if ignore_messages then "inexact" else "exact");
        ]
    in
    (* each outer entry is expected to continue one transaction: the
       uninformed unit-match estimate est = |t1| *)
    let est = float_of_int len1 in
    let rows_out = List.length matched in
    let ns = Int64.to_float total_ns in
    let scan name len =
      {
        Obs.Planlog.op = "scan " ^ name;
        est_rows = float_of_int len;
        est_cost = float_of_int len;
        actual_rows = len;
        actual_ns = 0.;
        batches = 0;
      }
    in
    Obs.Planlog.record ~site:"dependency.compose" ~fingerprint
      ~query:(Printf.sprintf "compose %s . %s @ %s" n1 n2 place)
      ~est_cost:(float_of_int (len1 + len2) +. est)
      ~total_ns:ns ~rows_out
      [
        {
          Obs.Planlog.op =
            Printf.sprintf "compose %s (key=src,dst,vc%s)"
              (if hash_path then "hash-bucket" else "nested-loop")
              (if ignore_messages then "" else ",msg");
          est_rows = est;
          est_cost = float_of_int (len1 + len2) +. est;
          actual_rows = rows_out;
          actual_ns = ns;
          batches = 0;
        };
        scan n1 len1;
        scan n2 len2;
      ]
  end

let compose ~ignore_messages ~placement t1 t2 =
  let t0 = Obs.Clock.now_ns () in
  let matched = compose_core ~ignore_messages ~placement t1 t2 in
  let total_ns = Obs.Clock.since t0 in
  record_matches placement matched;
  record_plan ~ignore_messages ~placement t1 t2 matched total_ns;
  matched

let dedup entries =
  let seen = Hashtbl.create 256 in
  List.filter
    (fun e ->
      if Hashtbl.mem seen e.dep then false
      else begin
        Hashtbl.add seen e.dep ();
        true
      end)
    entries

let compose_closure ~ignore_messages ~placements entries =
  let parts =
    Par.Pool.map_list ~min_chunk:1
      (fun placement ->
        ( placement,
          compose_core ~ignore_messages ~placement ("closure", entries)
            ("closure", entries) ))
      placements
  in
  List.iter (fun (placement, matched) -> record_matches placement matched) parts;
  List.concat_map snd parts

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
      Par.Pool.map_list ~min_chunk:1
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
  let composed =
    Obs.Trace.with_span ~cat:"checker" "checker.compose" @@ fun () ->
    (* Fan the pairwise compositions — the five quad-placement relations
       times both matching modes times every ordered controller pair —
       across the domain pool as independent work items.  Flattening the
       nested iteration into a job list and concatenating results in job
       order reproduces the sequential nesting order exactly. *)
    let jobs =
      List.concat_map
        (fun placement ->
          List.concat_map
            (fun ignore_messages ->
              List.concat_map
                (fun t1 ->
                  List.map
                    (fun t2 -> placement, ignore_messages, t1, t2)
                    named)
                named)
            modes)
        placements
    in
    let parts =
      Par.Pool.map_list ~min_chunk:1
        (fun (placement, ignore_messages, t1, t2) ->
          placement, compose_core ~ignore_messages ~placement t1 t2)
        jobs
    in
    List.iter
      (fun (placement, matched) -> record_matches placement matched)
      parts;
    List.concat_map snd parts
  in
  let base = dedup (List.concat_map snd named @ composed) in
  Obs.Metrics.set
    (Obs.Metrics.gauge (Lazy.force obs_reg) "dependency_table_rows")
    (float_of_int (List.length base));
  if not fixpoint then base
  else begin
    (* iterate self-composition until no new dependency appears *)
    let rec iterate acc =
      let next =
        dedup
          (acc
          @ List.concat_map
              (fun ignore_messages ->
                compose_closure ~ignore_messages ~placements acc)
              modes)
      in
      if List.length next = List.length acc then acc else iterate next
    in
    iterate base
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
