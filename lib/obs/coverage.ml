(* Transition coverage: one bitmap per registered controller table,
   recording which rows have ever fired.

   Recording must be legal from inside parallel workers (the mcheck BFS
   expands states in worker domains), so the store is sharded exactly
   like the mcheck dedup table: each domain writes a private bitmap
   obtained through Domain.DLS, and {!snapshot} ORs the shards together.
   OR is commutative and idempotent, so the merged bitmap is independent
   of worker scheduling — the parallel result is bit-identical to the
   sequential one, which keeps the Par.Pool determinism contract intact
   (see lib/par/pool.mli).

   Bitmaps are keyed by the runtime [Table.id] of the generating table;
   ids are process-local, so anything persisted (run manifests) carries
   the table {e name} and row count instead, letting a later process
   re-associate coverage with a regenerated table of the same shape. *)

type table = { t_name : string; t_rows : int }

type table_coverage = {
  name : string;
  rows : int;
  covered : int;
  bitmap : Bytes.t;  (** LSB-first: row [r] is bit [r land 7] of byte [r lsr 3] *)
}

let enabled = ref false
let enable () = enabled := true
let disable () = enabled := false
let on () = !enabled

let with_enabled f =
  let prev = !enabled in
  enabled := true;
  Fun.protect ~finally:(fun () -> enabled := prev) f

(* The lock covers the table registry and the shard list; the bitmaps
   themselves are domain-private and written lock-free. *)
let lock = Mutex.create ()

let locked f =
  Mutex.lock lock;
  Fun.protect ~finally:(fun () -> Mutex.unlock lock) f

let tables : (int, table) Hashtbl.t = Hashtbl.create 16
let shards : (int, Bytes.t) Hashtbl.t list ref = ref []

let shard_key =
  Domain.DLS.new_key (fun () ->
      let h = Hashtbl.create 16 in
      locked (fun () -> shards := h :: !shards);
      h)

let register ~id ~name ~rows =
  locked (fun () ->
      if not (Hashtbl.mem tables id) then
        Hashtbl.add tables id { t_name = name; t_rows = rows })

let lookup ~id =
  locked (fun () ->
      Option.map
        (fun t -> (t.t_name, t.t_rows))
        (Hashtbl.find_opt tables id))

let bytes_for rows = (rows + 7) / 8

let set_bit b row =
  let i = row lsr 3 in
  if i >= 0 && i < Bytes.length b then
    Bytes.set b i
      (Char.chr (Char.code (Bytes.get b i) lor (1 lsl (row land 7))))

let record ~id ~row =
  if !enabled then begin
    let shard = Domain.DLS.get shard_key in
    match Hashtbl.find_opt shard id with
    | Some b -> set_bit b row
    | None -> (
        match locked (fun () -> Hashtbl.find_opt tables id) with
        | None -> ()  (* unregistered table: drop silently *)
        | Some t ->
            let b = Bytes.make (bytes_for t.t_rows) '\000' in
            Hashtbl.add shard id b;
            set_bit b row)
  end

(* ------------------------------ snapshot ------------------------------ *)

let popcount_byte =
  Array.init 256 (fun i ->
      let rec go n acc = if n = 0 then acc else go (n lsr 1) (acc + (n land 1)) in
      go i 0)

let popcount b =
  let n = ref 0 in
  Bytes.iter (fun c -> n := !n + popcount_byte.(Char.code c)) b;
  !n

let or_into ~dst src =
  let n = min (Bytes.length dst) (Bytes.length src) in
  for i = 0 to n - 1 do
    Bytes.set dst i
      (Char.chr (Char.code (Bytes.get dst i) lor Char.code (Bytes.get src i)))
  done

(* OR bitmaps together per (name, rows): the one merge behind both the
   live snapshot (one entry per domain shard) and manifest aggregation
   (one entry per run).  Entries that disagree on the row count stay
   separate tables rather than being silently mis-merged. *)
let merge entries =
  let merged : (string * int, Bytes.t) Hashtbl.t = Hashtbl.create 16 in
  List.iter
    (fun (name, rows, bitmap) ->
      let acc =
        match Hashtbl.find_opt merged (name, rows) with
        | Some b -> b
        | None ->
            let b = Bytes.make (bytes_for rows) '\000' in
            Hashtbl.add merged (name, rows) b;
            b
      in
      or_into ~dst:acc bitmap)
    entries;
  Hashtbl.fold
    (fun (name, rows) bitmap acc ->
      { name; rows; covered = popcount bitmap; bitmap } :: acc)
    merged []
  |> List.sort (fun a b -> compare (a.name, a.rows) (b.name, b.rows))

(* A registered table with no shard yet still appears, fully uncovered. *)
let snapshot () =
  locked @@ fun () ->
  Hashtbl.fold
    (fun id t acc ->
      ((t.t_name, t.t_rows, Bytes.empty) :: acc)
      @ List.filter_map
          (fun shard ->
            Option.map
              (fun b -> (t.t_name, t.t_rows, b))
              (Hashtbl.find_opt shard id))
          !shards)
    tables []
  |> merge

let is_covered tc row =
  row >= 0 && row < tc.rows
  && (row lsr 3) < Bytes.length tc.bitmap
  && Char.code (Bytes.get tc.bitmap (row lsr 3)) land (1 lsl (row land 7)) <> 0

let uncovered tc =
  List.filter (fun r -> not (is_covered tc r)) (List.init tc.rows Fun.id)

let totals snap =
  List.fold_left (fun (c, r) tc -> (c + tc.covered, r + tc.rows)) (0, 0) snap

let percent ~covered ~rows =
  if rows = 0 then 100. else 100. *. float_of_int covered /. float_of_int rows

(* ----------------------------- hex codec ------------------------------ *)

let to_hex b =
  let out = Buffer.create (2 * Bytes.length b) in
  Bytes.iter (fun c -> Buffer.add_string out (Printf.sprintf "%02x" (Char.code c))) b;
  Buffer.contents out

let of_hex s =
  if String.length s mod 2 <> 0 then invalid_arg "Coverage.of_hex: odd length";
  let digit c =
    match c with
    | '0' .. '9' -> Char.code c - Char.code '0'
    | 'a' .. 'f' -> Char.code c - Char.code 'a' + 10
    | 'A' .. 'F' -> Char.code c - Char.code 'A' + 10
    | _ -> invalid_arg "Coverage.of_hex: not a hex digit"
  in
  Bytes.init
    (String.length s / 2)
    (fun i -> Char.chr ((digit s.[2 * i] lsl 4) lor digit s.[(2 * i) + 1]))

(* ------------------------------- JSON --------------------------------- *)

let table_to_json tc =
  Json.Obj
    [
      ("table", Json.Str tc.name);
      ("rows", Json.Int tc.rows);
      ("covered", Json.Int tc.covered);
      ("percent", Json.Float (percent ~covered:tc.covered ~rows:tc.rows));
      ("bitmap", Json.Str (to_hex tc.bitmap));
    ]

let to_json () =
  let snap = snapshot () in
  let covered, rows = totals snap in
  Json.Obj
    [
      ("covered", Json.Int covered);
      ("rows", Json.Int rows);
      ("percent", Json.Float (percent ~covered ~rows));
      ("tables", Json.List (List.map table_to_json snap));
    ]

(* The reader for what [table_to_json] writes, strict about shape: an
   entry whose row count is negative or whose bitmap is not exactly
   ceil(rows/8) bytes is refused, so a corrupt manifest is reported
   instead of sizing an allocation (or a row listing) from it. *)
let of_manifest doc =
  let entry e =
    let str k = Option.bind (Json.member k e) Json.to_str in
    match
      (str "table", Option.bind (Json.member "rows" e) Json.to_number, str "bitmap")
    with
    | Some name, Some rows, Some hex
      when Float.is_integer rows && rows >= 0.
           && float_of_int (String.length hex) = 2. *. Float.ceil (rows /. 8.)
      -> (
        match of_hex hex with
        | bitmap -> Ok (name, int_of_float rows, bitmap)
        | exception Invalid_argument msg -> Error (name ^ ": " ^ msg))
    | name, _, _ ->
        Error
          (Printf.sprintf "malformed coverage entry for table %s"
             (Option.value ~default:"?" name))
  in
  match Option.bind (Json.member "coverage" doc) (Json.member "tables") with
  | None -> Ok []
  | Some (Json.List entries) ->
      List.fold_left
        (fun acc e ->
          Result.bind acc (fun l -> Result.map (fun x -> x :: l) (entry e)))
        (Ok []) entries
      |> Result.map List.rev
  | Some _ -> Error "coverage tables is not a list"

(* ------------------------------ lifecycle ----------------------------- *)

(* Both of these may only run while no pool jobs are in flight: they
   touch bitmaps owned by other domains' shards.  Par.Pool entry points
   only return after every chunk completes, so any caller outside a
   worker is already quiescent. *)

let reset () = locked (fun () -> List.iter Hashtbl.reset !shards)

let clear () =
  locked (fun () ->
      List.iter Hashtbl.reset !shards;
      Hashtbl.reset tables)
