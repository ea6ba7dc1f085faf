exception Schema_clash of string
exception Incompatible_schemas of string

let select ?funcs pred t =
  Table.filter_idx
    (Expr.compile_columns ?funcs (Table.schema t) ~dict:(Table.dict t)
       ~codes:(Table.codes t) pred)
    t

let rename mapping t =
  let schema = Table.schema t in
  Table.select_columns (Schema.rename schema mapping) t
    (List.init (Schema.arity schema) Fun.id)

let check_disjoint sa sb =
  List.iter
    (fun c -> if Schema.mem sa c then raise (Schema_clash c))
    (Schema.columns sb)

let cross ta tb =
  let sa = Table.schema ta and sb = Table.schema tb in
  check_disjoint sa sb;
  let schema = Schema.append sa (Schema.columns sb) in
  let na = Table.cardinality ta and nb = Table.cardinality tb in
  let n = na * nb in
  (* Row (ia, ib) lands at index ia*nb + ib: a-columns repeat each code nb
     times, b-columns tile their whole code sequence na times. *)
  let col_of_a j =
    let src = Table.codes ta j in
    let out = Array.make n 0 in
    for ia = 0 to na - 1 do
      Array.fill out (ia * nb) nb src.(ia)
    done;
    (Table.dict ta j, out)
  in
  let col_of_b j =
    let src = Table.codes tb j in
    let out = Array.make n 0 in
    for ia = 0 to na - 1 do
      Array.blit src 0 out (ia * nb) nb
    done;
    (Table.dict tb j, out)
  in
  Table.of_columns
    ~name:(Table.name ta ^ "*" ^ Table.name tb)
    schema ~nrows:n
    (Array.append
       (Array.init (Schema.arity sa) col_of_a)
       (Array.init (Schema.arity sb) col_of_b))

let cross_many ~name = function
  | [] -> invalid_arg "Ops.cross_many: empty list"
  | t :: ts -> Table.with_name name (List.fold_left cross t ts)

let prefix_columns prefix t =
  let mapping =
    List.map (fun c -> c, prefix ^ c) (Schema.columns (Table.schema t))
  in
  rename mapping t

let require_compatible op ta tb =
  if not (Schema.union_compatible (Table.schema ta) (Table.schema tb)) then
    raise
      (Incompatible_schemas
         (Printf.sprintf "%s: %s vs %s" op (Table.name ta) (Table.name tb)))

let union ta tb =
  require_compatible "union" ta tb;
  Table.distinct (Table.concat ta tb)

let union_many ~name schema = function
  | [] -> Table.create ~name schema
  | t :: ts -> Table.with_name name (List.fold_left union t ts)

let except ta tb =
  require_compatible "except" ta tb;
  let in_b = Table.row_membership ~of_:tb ta in
  Table.distinct (Table.filter_idx (fun i -> not (in_b i)) ta)

let intersect ta tb =
  require_compatible "intersect" ta tb;
  let in_b = Table.row_membership ~of_:tb ta in
  Table.distinct (Table.filter_idx in_b ta)

let equi_join ~on ta tb =
  let sa = Table.schema ta and sb = Table.schema tb in
  let a_keys = List.map (fun (a, _) -> Schema.index sa a) on in
  let b_keys = List.map (fun (_, b) -> Schema.index sb b) on in
  let b_key_cols = List.map snd on in
  let kept_b =
    List.filter (fun c -> not (List.mem c b_key_cols)) (Schema.columns sb)
  in
  List.iter (fun c -> if Schema.mem sa c then raise (Schema_clash c)) kept_b;
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

let add_column ~name f t =
  let schema = Schema.append (Table.schema t) [ name ] in
  let n = Table.cardinality t in
  let d = Dict.create () in
  let extra = Array.init n (fun i -> Dict.intern d (f (Table.get t i))) in
  let shared =
    Array.init (Table.arity t) (fun j ->
        (Table.dict t j, Array.sub (Table.codes t j) 0 n))
  in
  Table.of_columns ~name:(Table.name t) schema ~nrows:n
    (Array.append shared [| (d, extra) |])

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
