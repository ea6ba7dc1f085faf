open Relalg

type assignment = { msg : string; src : string; dst : string; vc : string }
type t = { name : string; rows : assignment list }

let vc0 = "VC0"
let vc1 = "VC1"
let vc2 = "VC2"
let vc3 = "VC3"
let vc4 = "VC4"

let role = Protocol.Topology.node_class_to_string

let canonical m =
  role m.Protocol.Message.src, role m.Protocol.Message.dst

(* Channel for each message in its canonical direction, given the channel
   used by the directory-to-memory request path. *)
let base ~name ~mem_req_vc =
  let assign m =
    let src, dst = canonical m in
    let open Protocol.Message in
    let vc =
      match m.category, m.class_ with
      | Mem, Request -> Some mem_req_vc
      | Mem, Response -> Some vc2
      | Impl, _ -> None
      | _, Request ->
          if src = "local" && dst = "home" then Some vc0
          else if src = "home" && dst = "remote" then Some vc1
          else None
      | _, Response ->
          if src = "remote" && dst = "home" then Some vc2
          else if src = "home" && dst = "local" then Some vc3
          else None
    in
    Option.map (fun vc -> { msg = m.name; src; dst; vc }) vc
  in
  { name; rows = List.filter_map assign Protocol.Message.all }

let initial = base ~name:"V-initial" ~mem_req_vc:vc0
let with_vc4 = base ~name:"V-vc4" ~mem_req_vc:vc4

let remove t ~msg ~src ~dst =
  {
    t with
    rows =
      List.filter
        (fun a -> not (a.msg = msg && a.src = src && a.dst = dst))
        t.rows;
  }

let debugged =
  (* mread and the unacknowledged sharing writeback mupdate are the two
     requests the directory issues while consuming responses; both move to
     the dedicated hardware path (the paper's fix, which names mread). *)
  let v = remove with_vc4 ~msg:"mread" ~src:"home" ~dst:"home" in
  let v = remove v ~msg:"mupdate" ~src:"home" ~dst:"home" in
  { v with name = "V-debugged" }

let standard = [ initial; with_vc4; debugged ]

let lookup t ~msg ~src ~dst =
  List.find_map
    (fun a ->
      if a.msg = msg && a.src = src && a.dst = dst then Some a.vc else None)
    t.rows

let channels t =
  List.sort_uniq String.compare (List.map (fun a -> a.vc) t.rows)

let schema = Schema.of_list [ "m"; "s"; "d"; "v" ]

let to_table t =
  Table.of_rows ~name:t.name schema
    (List.map
       (fun a -> Row.strings [ a.msg; a.src; a.dst; a.vc ])
       t.rows)

type error =
  | Wrong_columns of string list
  | No_rows
  | Non_string_cell of { line : int; column : string; value : Value.t }
  | Duplicate of {
      first : int;
      second : int;
      msg : string;
      src : string;
      dst : string;
    }

exception Invalid of error

let error_to_string = function
  | Wrong_columns cols ->
      Printf.sprintf "columns are %s, expected m,s,d,v" (String.concat "," cols)
  | No_rows -> "no assignment rows"
  | Non_string_cell { line; column; value } ->
      Printf.sprintf "line %d, column %s: expected a name, found %s" line
        column (Value.to_sql value)
  | Duplicate { first; second; msg; src; dst } ->
      Printf.sprintf "lines %d and %d both assign (%s, %s, %s)" first second
        msg src dst

(* [line_of_row i] is the file line data row [i] starts on *)
let of_rows ~line_of_row tbl =
  let columns = Schema.columns (Table.schema tbl) in
  if columns <> Schema.columns schema then raise (Invalid (Wrong_columns columns));
  if Table.is_empty tbl then raise (Invalid No_rows);
  let assignment i =
    let row = Table.get tbl i in
    let cell j =
      match row.(j) with
      | Value.Str s -> s
      | value ->
          raise
            (Invalid
               (Non_string_cell
                  { line = line_of_row i; column = List.nth columns j; value }))
    in
    let msg = cell 0 in
    let src = cell 1 in
    let dst = cell 2 in
    { msg; src; dst; vc = cell 3 }
  in
  let rows = List.init (Table.cardinality tbl) assignment in
  (* [lookup] reads the first matching row, so a second row for the same
     triple would be silently ignored *)
  let seen = Hashtbl.create 64 in
  List.iteri
    (fun i { msg; src; dst; _ } ->
      let second = line_of_row i in
      match Hashtbl.find_opt seen (msg, src, dst) with
      | Some first ->
          raise (Invalid (Duplicate { first; second; msg; src; dst }))
      | None -> Hashtbl.add seen (msg, src, dst) second)
    rows;
  { name = Table.name tbl; rows }

(* line 1 is the header *)
let of_table = of_rows ~line_of_row:(fun i -> i + 2)

let of_csv ~name src =
  let tbl, lines = Relalg.Csv.of_string_lines ~name src in
  of_rows ~line_of_row:(Array.get lines) tbl

let reassign t ~msg ~src ~dst ~vc =
  let t = remove t ~msg ~src ~dst in
  { t with rows = t.rows @ [ { msg; src; dst; vc } ] }
