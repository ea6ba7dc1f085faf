(* Columnar hash index: buckets map dictionary *codes* (not values) of
   the indexed column to row numbers of the source snapshot.  A probe
   value is first looked up in the column dictionary — a value that was
   never interned cannot appear in the table, so the probe is a miss
   without hashing a single row. *)

type t = {
  source : Table.t;  (* the snapshot indexed *)
  column : string;
  col : int;  (* offset of [column] in the source schema *)
  buckets : (int, int list) Hashtbl.t;  (* code -> row indices, reversed *)
}

let build tbl column =
  let col = Schema.index (Table.schema tbl) column in
  let codes = Table.codes tbl col in
  let buckets = Hashtbl.create 64 in
  for i = 0 to Table.cardinality tbl - 1 do
    let c = codes.(i) in
    let existing = Option.value (Hashtbl.find_opt buckets c) ~default:[] in
    Hashtbl.replace buckets c (i :: existing)
  done;
  { source = tbl; column; col; buckets }

let source t = t.source
let table_name t = Table.name t.source
let column t = t.column

let lookup_idx t v =
  match Dict.code_opt (Table.dict t.source t.col) v with
  | None -> []
  | Some c -> List.rev (Option.value (Hashtbl.find_opt t.buckets c) ~default:[])

let lookup t v = List.map (Table.get t.source) (lookup_idx t v)
let lookup_gather t v = Table.gather t.source (lookup_idx t v)

(* One entry per (table name, column), remembering the Table.id of the
   snapshot it indexes: a CREATE TABLE … AS that re-registers the name
   produces a fresh id, so the stale entry is rebuilt on next use
   instead of serving rows of the dead snapshot. *)
let cache : (string * string, int * t) Hashtbl.t = Hashtbl.create 16
let cache_lock = Mutex.create ()

let cached tbl column =
  Mutex.protect cache_lock @@ fun () ->
  let key = (Table.name tbl, column) in
  match Hashtbl.find_opt cache key with
  | Some (id, i) when id = Table.id tbl -> i
  | _ ->
      let i = build tbl column in
      Hashtbl.replace cache key (Table.id tbl, i);
      i

let consistent t tbl =
  let n = Table.cardinality t.source in
  Table.cardinality tbl = n
  && Hashtbl.fold (fun _ idxs acc -> acc + List.length idxs) t.buckets 0 = n
  &&
  let idx = Schema.index (Table.schema tbl) t.column in
  Table.fold
    (fun ok row -> ok && List.exists (Row.equal row) (lookup t row.(idx)))
    true tbl
