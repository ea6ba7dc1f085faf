(* Columnar storage: each column is a growable array of integer codes into
   a per-column dictionary.  A table value is an immutable *view* — (name,
   schema, columns, nrows, id) — over buffers that may be shared with other
   views.  [add] extends a buffer in place only when this view's nrows is
   the buffer's high-water mark (i.e. no other view has already claimed the
   tail); otherwise it branch-copies.  This gives O(1) amortized append on
   the common build-up pattern while keeping every published table value
   semantically immutable. *)

type buf = { mutable data : int array; mutable len : int }
type col = { dict : Dict.t; buf : buf }

type t = {
  name : string;
  schema : Schema.t;
  cols : col array;
  nrows : int;
  id : int;
}

exception Arity_mismatch of { table : string; expected : int; got : int }

let next_id = Atomic.make 0
let fresh_id () = Atomic.fetch_and_add next_id 1

let check_arity t row =
  let expected = Schema.arity t.schema and got = Array.length row in
  if expected <> got then raise (Arity_mismatch { table = t.name; expected; got })

let fresh_col cap = { dict = Dict.create (); buf = { data = Array.make (max 8 cap) 0; len = 0 } }

let create ~name schema =
  let arity = Schema.arity schema in
  { name; schema; cols = Array.init arity (fun _ -> fresh_col 8); nrows = 0;
    id = fresh_id () }

let of_rows ~name schema rows =
  let expected = Schema.arity schema in
  let n = List.length rows in
  let cols = Array.init expected (fun _ -> fresh_col n) in
  let i = ref 0 in
  List.iter
    (fun row ->
      let got = Array.length row in
      if got <> expected then raise (Arity_mismatch { table = name; expected; got });
      for j = 0 to expected - 1 do
        cols.(j).buf.data.(!i) <- Dict.intern cols.(j).dict row.(j)
      done;
      incr i)
    rows;
  Array.iter (fun c -> c.buf.len <- n) cols;
  { name; schema; cols; nrows = n; id = fresh_id () }

let name t = t.name
let with_name name t = { t with name; id = fresh_id () }
let schema t = t.schema
let cardinality t = t.nrows
let arity t = Schema.arity t.schema
let is_empty t = t.nrows = 0
let id t = t.id

let get t i =
  Array.map (fun c -> Dict.value c.dict c.buf.data.(i)) t.cols

let rows t =
  let rec loop i acc = if i < 0 then acc else loop (i - 1) (get t i :: acc) in
  loop (t.nrows - 1) []

(* Append one cell to a column.  In place when [nrows] is the buffer's
   high-water mark (no other view owns the tail), branch-copy otherwise. *)
let push_col nrows col v =
  let code = Dict.intern col.dict v in
  let buf = col.buf in
  if buf.len = nrows then begin
    if Array.length buf.data = nrows then begin
      let data = Array.make (max 8 (2 * nrows)) 0 in
      Array.blit buf.data 0 data 0 nrows;
      buf.data <- data
    end;
    buf.data.(nrows) <- code;
    buf.len <- nrows + 1;
    col
  end
  else begin
    let data = Array.make (max 8 (2 * (nrows + 1))) 0 in
    Array.blit buf.data 0 data 0 nrows;
    data.(nrows) <- code;
    { col with buf = { data; len = nrows + 1 } }
  end

let add t row =
  check_arity t row;
  let cols = Array.mapi (fun j col -> push_col t.nrows col row.(j)) t.cols in
  { t with cols; nrows = t.nrows + 1; id = fresh_id () }

let add_all t extra = List.fold_left add t extra

let key_of_codes cols i =
  Array.map (fun c -> c.buf.data.(i)) cols

let mem t row =
  if Array.length row <> arity t then false
  else
    let key = Array.make (Array.length t.cols) 0 in
    let resolved =
      try
        Array.iteri
          (fun j c ->
            match Dict.code_opt c.dict row.(j) with
            | Some code -> key.(j) <- code
            | None -> raise Exit)
          t.cols;
        true
      with Exit -> false
    in
    resolved
    &&
    let found = ref false in
    let i = ref 0 in
    while (not !found) && !i < t.nrows do
      if key_of_codes t.cols !i = key then found := true;
      incr i
    done;
    !found

let cell t row col = row.(Schema.index t.schema col)

let iter f t =
  for i = 0 to t.nrows - 1 do
    f (get t i)
  done

let fold f init t =
  let acc = ref init in
  for i = 0 to t.nrows - 1 do
    acc := f !acc (get t i)
  done;
  !acc

(* shared tail of gather/filter_idx: copy rows [idx.(0..m-1)] of every
   column with a tight loop; when the index is the identity over the
   whole table, share the column records instead (safe for the same
   reason [select_columns] sharing is: push_col branch-copies as soon
   as two views contend for a buffer's tail) *)
let gather_idx ~name t idx m =
  (* one up-front range check makes the unsafe per-column loops sound
     even for caller-supplied indices (public [gather]) *)
  for k = 0 to m - 1 do
    if idx.(k) < 0 || idx.(k) >= t.nrows then
      invalid_arg
        (Printf.sprintf "Table.gather: row %d out of range (0..%d)" idx.(k)
           (t.nrows - 1))
  done;
  let identity =
    m = t.nrows
    &&
    let k = ref 0 in
    while !k < m && idx.(!k) = !k do
      incr k
    done;
    !k = m
  in
  let cols =
    if identity then t.cols
    else
      Array.map
        (fun c ->
          let src = c.buf.data in
          let data = Array.make (max 8 m) 0 in
          (* unsafe is sound here: k < m = length data, and every
             idx.(k) is a row index < nrows <= length src *)
          for k = 0 to m - 1 do
            Array.unsafe_set data k
              (Array.unsafe_get src (Array.unsafe_get idx k))
          done;
          { dict = c.dict; buf = { data; len = m } })
        t.cols
  in
  { name; schema = t.schema; cols; nrows = m; id = fresh_id () }

let gather ?name t idxs =
  let idx = Array.of_list idxs in
  gather_idx
    ~name:(Option.value name ~default:t.name)
    t idx (Array.length idx)

let filter_idx p t =
  let idx = Array.make (max 1 t.nrows) 0 in
  let m = ref 0 in
  for i = 0 to t.nrows - 1 do
    if p i then begin
      idx.(!m) <- i;
      incr m
    end
  done;
  gather_idx ~name:t.name t idx !m

let filter p t = filter_idx (fun i -> p (get t i)) t

let map_rows f t =
  of_rows ~name:t.name t.schema (List.map f (rows t))

let sort t =
  let decoded = Array.init t.nrows (get t) in
  let idx = Array.init t.nrows Fun.id in
  Array.sort
    (fun i j ->
      let c = Row.compare decoded.(i) decoded.(j) in
      if c <> 0 then c else compare i j)
    idx;
  gather t (Array.to_list idx)

(* Map every code of [a]'s column [j] into [b]'s dictionary space (-1 when
   the value is absent from [b]'s dictionary).  Physically shared
   dictionaries get the identity map for free. *)
let translation a_col b_col =
  if a_col.dict == b_col.dict then None
  else begin
    let n = Dict.size a_col.dict in
    let map = Array.make n (-1) in
    for c = 0 to n - 1 do
      match Dict.code_opt b_col.dict (Dict.value a_col.dict c) with
      | Some c' -> map.(c) <- c'
      | None -> ()
    done;
    Some map
  end

let translated_key trans a_cols i =
  let arity = Array.length a_cols in
  let key = Array.make arity 0 in
  let ok = ref true in
  for j = 0 to arity - 1 do
    let c = a_cols.(j).buf.data.(i) in
    let c' = match trans.(j) with None -> c | Some map -> map.(c) in
    if c' < 0 then ok := false else key.(j) <- c'
  done;
  if !ok then Some key else None

let row_code_set t =
  let set = Hashtbl.create (max 16 t.nrows) in
  for i = 0 to t.nrows - 1 do
    Hashtbl.replace set (key_of_codes t.cols i) ()
  done;
  set

let subset a b =
  if not (Schema.union_compatible a.schema b.schema) then false
  else if a.nrows = 0 then true
  else begin
    let bset = row_code_set b in
    let trans = Array.init (Array.length a.cols) (fun j -> translation a.cols.(j) b.cols.(j)) in
    let ok = ref true in
    let i = ref 0 in
    while !ok && !i < a.nrows do
      (match translated_key trans a.cols !i with
      | Some key -> if not (Hashtbl.mem bset key) then ok := false
      | None -> ok := false);
      incr i
    done;
    !ok
  end

let equal_as_sets a b = subset a b && subset b a

let select_columns ?name schema t js =
  let cols = Array.of_list (List.map (fun j -> t.cols.(j)) js) in
  { name = Option.value name ~default:t.name; schema; cols; nrows = t.nrows;
    id = fresh_id () }

let project cols t =
  select_columns (Schema.project t.schema cols) t
    (List.map (Schema.index t.schema) cols)

let of_columns ~name schema ~nrows pairs =
  let cols =
    Array.map (fun (dict, data) -> { dict; buf = { data; len = nrows } }) pairs
  in
  { name; schema; cols; nrows; id = fresh_id () }

let dict t j = t.cols.(j).dict
let codes t j = t.cols.(j).buf.data

let to_string t =
  let cols = Schema.columns t.schema in
  let header = Array.of_list cols in
  let width = Array.map String.length header in
  let decoded = rows t in
  List.iter
    (fun row ->
      Array.iteri
        (fun i v -> width.(i) <- max width.(i) (String.length (Value.to_string v)))
        row)
    decoded;
  let buf = Buffer.create 256 in
  let pad i s =
    Buffer.add_string buf s;
    Buffer.add_string buf (String.make (width.(i) - String.length s + 2) ' ')
  in
  Array.iteri pad header;
  Buffer.add_char buf '\n';
  Array.iteri (fun i _ -> pad i (String.make width.(i) '-')) header;
  Buffer.add_char buf '\n';
  List.iter
    (fun row ->
      Array.iteri (fun i v -> pad i (Value.to_string v)) row;
      Buffer.add_char buf '\n')
    decoded;
  Buffer.contents buf

let pp fmt t =
  Format.fprintf fmt "%s [%d rows]@.%s" t.name (cardinality t) (to_string t)

let distinct_dicts t =
  Array.fold_left
    (fun acc c -> if List.memq c.dict acc then acc else c.dict :: acc)
    [] t.cols

let storage_bytes t =
  let word = Sys.word_size / 8 in
  let codes_bytes =
    Array.fold_left (fun acc c -> acc + (Array.length c.buf.data * word)) 0 t.cols
  in
  codes_bytes + List.fold_left (fun acc d -> acc + Dict.bytes d) 0 (distinct_dicts t)

let dict_sizes t =
  List.mapi (fun j c -> c, Dict.size t.cols.(j).dict) (Schema.columns t.schema)

let dict_hit_rate t =
  let hits, misses =
    List.fold_left
      (fun (h, m) d -> (h + Dict.hits d, m + Dict.misses d))
      (0, 0) (distinct_dicts t)
  in
  if hits + misses = 0 then 0. else float_of_int hits /. float_of_int (hits + misses)
