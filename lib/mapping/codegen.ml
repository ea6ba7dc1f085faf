open Relalg

type rule = {
  row : int;  (* index of the generating row in the source table *)
  guard : (string * string) list;
  action : (string * string) list;
}

let cells_of cols schema row =
  List.filter_map
    (fun c ->
      match row.(Schema.index schema c) with
      | Value.Str s -> Some (c, s)
      | Value.Int i -> Some (c, string_of_int i)
      | Value.Bool b -> Some (c, string_of_bool b)
      | Value.Float f -> Some (c, Value.to_string (Value.Float f))
      | Value.Null -> None)
    cols

(* Rule extraction runs off the dictionary codes: each referenced
   column's dictionary entries are rendered to strings once, and every
   row's guard/action cells are then array lookups — no row is decoded.
   This is the path the model checker and the table-driven simulator
   load their controllers through, so it runs once per (big) table. *)
let rules_of_table ~inputs ~outputs t =
  let schema = Table.schema t in
  let rendered cols =
    List.map
      (fun c ->
        let j = Schema.index schema c in
        let d = Table.dict t j in
        let strs =
          Array.init (Dict.size d) (fun code ->
              match Dict.value d code with
              | Value.Str s -> Some s
              | Value.Int i -> Some (string_of_int i)
              | Value.Bool b -> Some (string_of_bool b)
              | Value.Float f -> Some (Value.to_string (Value.Float f))
              | Value.Null -> None)
        in
        (c, Table.codes t j, strs))
      cols
  in
  let rin = rendered inputs and rout = rendered outputs in
  let cells_at cols i =
    List.filter_map
      (fun (c, codes, strs) -> Option.map (fun s -> (c, s)) strs.(codes.(i)))
      cols
  in
  let rules =
    List.init (Table.cardinality t) (fun i ->
        { row = i; guard = cells_at rin i; action = cells_at rout i })
  in
  (* Most-specific-first so dont-care rows cannot shadow constrained
     ones; stable within equal specificity to keep table order. *)
  List.stable_sort
    (fun a b -> compare (List.length b.guard) (List.length a.guard))
    rules

let eval_rule rules binding =
  let matches r =
    List.for_all
      (fun (c, want) ->
        match List.assoc_opt c binding with
        | Some got -> String.equal got want
        | None -> false)
      r.guard
  in
  List.find_opt matches rules

let agrees_with_table ~inputs ~outputs t =
  let rules = rules_of_table ~inputs ~outputs t in
  let schema = Table.schema t in
  List.for_all
    (fun row ->
      let binding = cells_of inputs schema row in
      let expected = cells_of outputs schema row in
      match eval_rule rules binding with
      | Some r -> List.sort compare r.action = List.sort compare expected
      | None -> expected = [])
    (Table.rows t)

(* ------------------------------------------------------------------ *)
(* Emission                                                            *)
(* ------------------------------------------------------------------ *)

let sanitize s =
  String.map
    (fun c ->
      match c with
      | 'a' .. 'z' | 'A' .. 'Z' | '0' .. '9' | '_' -> c
      | _ -> '_')
    s

let enum_token col value = String.uppercase_ascii (sanitize (col ^ "_" ^ value))

let enums_of_rules rules =
  let tbl = Hashtbl.create 32 in
  let order = ref [] in
  let note (c, v) =
    if not (Hashtbl.mem tbl (c, v)) then begin
      Hashtbl.add tbl (c, v) ();
      order := (c, v) :: !order
    end
  in
  List.iter
    (fun r ->
      List.iter note r.guard;
      List.iter note r.action)
    rules;
  List.rev !order

let to_verilog ~name rules =
  let buf = Buffer.create 1024 in
  let pr fmt = Printf.ksprintf (Buffer.add_string buf) fmt in
  pr "// generated from table %s -- do not edit\n" name;
  pr "module %s;\n" (String.lowercase_ascii (sanitize name));
  let enums = enums_of_rules rules in
  List.iteri
    (fun i (c, v) -> pr "  localparam %s = %d; // %s = %s\n" (enum_token c v) i c v)
    enums;
  pr "  always @* begin\n";
  List.iteri
    (fun i r ->
      let cond =
        match r.guard with
        | [] -> "1'b1"
        | g ->
            String.concat " && "
              (List.map (fun (c, v) -> Printf.sprintf "%s == %s" (sanitize c) (enum_token c v)) g)
      in
      pr "    %s (%s) begin\n" (if i = 0 then "if" else "else if") cond;
      List.iter
        (fun (c, v) -> pr "      %s <= %s;\n" (sanitize c) (enum_token c v))
        r.action;
      pr "    end\n")
    rules;
  pr "  end\nendmodule\n";
  Buffer.contents buf

let to_ocaml ~name rules =
  let buf = Buffer.create 1024 in
  let pr fmt = Printf.ksprintf (Buffer.add_string buf) fmt in
  pr "(* generated from table %s -- do not edit *)\n" name;
  pr "let %s binding =\n" (String.lowercase_ascii (sanitize name));
  pr "  let is c v = List.assoc_opt c binding = Some v in\n";
  pr "  ignore is;\n";
  List.iter
    (fun r ->
      let cond =
        match r.guard with
        | [] -> "true"
        | g ->
            String.concat " && "
              (List.map (fun (c, v) -> Printf.sprintf "is %S %S" c v) g)
      in
      pr "  if %s then Some [%s] else\n" cond
        (String.concat "; "
           (List.map (fun (c, v) -> Printf.sprintf "%S, %S" c v) r.action)))
    rules;
  pr "  None\n";
  Buffer.contents buf

let emit_all db =
  List.map
    (fun (g : Partition.group) ->
      let t = Database.find db g.table_name in
      let rules =
        rules_of_table ~inputs:Extend.input_columns ~outputs:g.payload t
      in
      g.table_name, to_verilog ~name:g.table_name rules)
    Partition.groups
