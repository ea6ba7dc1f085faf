(* The row-at-a-time reference engine.  Every operator runs
   sequentially on the calling domain and calls nothing in {!Batch}:
   the set operators and [distinct] work on decoded rows, selection
   filters row by row, and the join keeps its own hash index.
   Production never calls this module; the differential tests compare
   the planner with it. *)

let select ?funcs pred t =
  Table.filter_idx
    (Expr.compile_columns ?funcs (Table.schema t) ~dict:(Table.dict t)
       ~codes:(Table.codes t) pred)
    t

(* Rows in order, each kept at its first occurrence. *)
let distinct_rows rows =
  let seen = Row.Tbl.create 64 in
  List.filter
    (fun r -> (not (Row.Tbl.mem seen r)) && (Row.Tbl.add seen r (); true))
    rows

let of_rows t rows =
  Table.of_rows ~name:(Table.name t) (Table.schema t) (distinct_rows rows)

let distinct t = of_rows t (Table.rows t)

let union ta tb =
  Schema.check_union_compatible "UNION" (Table.schema ta) (Table.schema tb);
  of_rows ta (Table.rows ta @ Table.rows tb)

(* The distinct rows of [ta] whose membership in [tb] is [keep]. *)
let membership ~keep op ta tb =
  Schema.check_union_compatible op (Table.schema ta) (Table.schema tb);
  let in_b = Row.Tbl.create 64 in
  Table.iter (fun r -> Row.Tbl.replace in_b r ()) tb;
  of_rows ta (List.filter (fun r -> Row.Tbl.mem in_b r = keep) (Table.rows ta))

let except ta tb = membership ~keep:false "EXCEPT" ta tb
let intersect ta tb = membership ~keep:true "INTERSECT" ta tb

let equi_join ~on ta tb =
  let sa = Table.schema ta and sb = Table.schema tb in
  let a_keys = List.map (fun (a, _) -> Schema.index sa a) on in
  let b_keys = List.map (fun (_, b) -> Schema.index sb b) on in
  let b_key_cols = List.map snd on in
  let kept_b =
    List.filter (fun c -> not (List.mem c b_key_cols)) (Schema.columns sb)
  in
  List.iter
    (fun c -> if Schema.mem sa c then raise (Schema.Schema_clash c))
    kept_b;
  let na = Table.cardinality ta and nb = Table.cardinality tb in
  (* Hash join in code space: index tb row numbers by their key codes,
     translate ta's key codes into tb's dictionaries once, then probe. *)
  let b_key = Array.of_list (List.map (Table.codes tb) b_keys) in
  let buckets = Hashtbl.create (max 16 nb) in
  for ib = 0 to nb - 1 do
    let k = Array.map (fun cs -> cs.(ib)) b_key in
    let existing = Option.value (Hashtbl.find_opt buckets k) ~default:[] in
    Hashtbl.replace buckets k (ib :: existing)
  done;
  (* buckets accumulate newest-first; reversing each into an array once
     restores tb row order, so probes need no per-row reversal *)
  let index = Hashtbl.create (max 16 nb) in
  Hashtbl.iter
    (fun k l -> Hashtbl.replace index k (Array.of_list (List.rev l)))
    buckets;
  let a_key = Array.of_list (List.map (Table.codes ta) a_keys) in
  let trans =
    Array.of_list
      (List.map2
         (fun ja jb ->
           let da = Table.dict ta ja and db = Table.dict tb jb in
           if da == db then None else Some (Dict.translate ~from:da ~into:db))
         a_keys b_keys)
  in
  let nkeys = Array.length a_key in
  (* write row ia's translated key codes into scratch array [k]; false
     when a key value has no code in tb's dictionary (no match) *)
  let key_into k ia =
    let ok = ref true in
    for j = 0 to nkeys - 1 do
      let c = a_key.(j).(ia) in
      let c' = match trans.(j) with None -> c | Some map -> map.(c) in
      if c' < 0 then ok := false else k.(j) <- c'
    done;
    !ok
  in
  (* probe with one reused key array and push straight into growable
     index buffers: no per-row allocation *)
  let cap = ref 16 in
  let ias = ref (Array.make !cap 0) and ibs = ref (Array.make !cap 0) in
  let m = ref 0 in
  let k = Array.make nkeys 0 in
  for ia = 0 to na - 1 do
    if key_into k ia then
      match Hashtbl.find_opt index k with
      | None -> ()
      | Some matches ->
          Array.iter
            (fun ib ->
              if !m = !cap then begin
                cap := !cap * 2;
                let grow a =
                  let a' = Array.make !cap 0 in
                  Array.blit a 0 a' 0 !m;
                  a'
                in
                ias := grow !ias;
                ibs := grow !ibs
              end;
              !ias.(!m) <- ia;
              !ibs.(!m) <- ib;
              incr m)
            matches
  done;
  let ias = !ias and ibs = !ibs and m = !m in
  let col_from t idxs j =
    let src = Table.codes t j in
    let data = Array.make (max 1 m) 0 in
    for k = 0 to m - 1 do
      data.(k) <- src.(idxs.(k))
    done;
    (Table.dict t j, data)
  in
  Table.of_columns
    ~name:(Table.name ta ^ "|x|" ^ Table.name tb)
    (Schema.append sa kept_b) ~nrows:m
    (Array.append
       (Array.init (Schema.arity sa) (col_from ta ias))
       (Array.of_list (List.map (fun jb -> col_from tb ibs jb) (List.map (Schema.index sb) kept_b))))

let group_count ~by t =
  let projected = Table.project by t in
  let n = Table.cardinality projected in
  let arity = Table.arity projected in
  let cols = Array.init arity (Table.codes projected) in
  let counts = Hashtbl.create 64 in
  let order = ref [] in
  for i = 0 to n - 1 do
    let key = Array.map (fun cs -> cs.(i)) cols in
    match Hashtbl.find_opt counts key with
    | Some c -> Hashtbl.replace counts key (c + 1)
    | None ->
        Hashtbl.add counts key 1;
        order := (i, key) :: !order
  done;
  List.rev_map
    (fun (i, key) -> (Table.get projected i, Hashtbl.find counts key))
    !order

(* Sort keys are decoded once into value arrays; the stable sort then
   compares decoded cells under Value.order (numeric across Int/Float)
   and ties keep input order.  Gathering by the sorted index list reuses
   the input's dictionaries, so sorting never re-interns. *)
let order_by keys t =
  let schema = Table.schema t in
  let n = Table.cardinality t in
  let cols =
    List.map
      (fun (c, dir) ->
        let j = Schema.index schema c in
        let d = Table.dict t j and cs = Table.codes t j in
        (Array.init n (fun i -> Dict.value d cs.(i)), dir))
      keys
  in
  let rec cmp cols a b =
    match cols with
    | [] -> 0
    | (vals, dir) :: rest ->
        let r = Value.order vals.(a) vals.(b) in
        let r = match dir with `Asc -> r | `Desc -> -r in
        if r <> 0 then r else cmp rest a b
  in
  Table.gather ~name:(Table.name t) t
    (List.stable_sort (cmp cols) (List.init n Fun.id))

let limit n t =
  if n >= Table.cardinality t then t else Table.filter_idx (fun i -> i < n) t

let rec execute db p =
  match p with
  | Plan.Scan name -> Database.find db name
  | Plan.Select (e, inner) ->
      select ~funcs:(Database.functions db) e (execute db inner)
  | Plan.Project (cols, inner) -> Table.project cols (execute db inner)
  | Plan.Distinct inner -> distinct (execute db inner)
  | Plan.Sort (keys, inner) -> order_by keys (execute db inner)
  | Plan.Limit (n, inner) -> limit n (execute db inner)
  | Plan.Count inner ->
      Table.of_rows ~name:"<count>"
        (Schema.of_list [ "count" ])
        [ [| Value.Int (Table.cardinality (execute db inner)) |] ]
  | Plan.Group_count (cols, inner) ->
      Table.of_rows ~name:"<group>"
        (Schema.of_list (cols @ [ "count" ]))
        (List.map
           (fun (key, n) -> Array.append key [| Value.Int n |])
           (group_count ~by:cols (execute db inner)))
  | Plan.Union (a, b) -> union (execute db a) (execute db b)
  | Plan.Except (a, b) -> except (execute db a) (execute db b)
  | Plan.Intersect (a, b) -> intersect (execute db a) (execute db b)
  | Plan.Empty cols -> Table.create ~name:"<empty>" (Schema.of_list cols)
