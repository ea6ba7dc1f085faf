open Relalg

type input_spec = V of string | Among of string list
type output_spec = Out of string | Copy of string

type scenario = {
  label : string;
  when_ : (string * input_spec) list;
  emit : (string * output_spec) list;
}

type t = {
  name : string;
  inputs : (string * string list) list;
  outputs : (string * string list) list;
  scenarios : scenario list;
  mutable generated : Table.t option;
}

exception Invalid_controller of string

let invalid fmt = Printf.ksprintf (fun s -> raise (Invalid_controller s)) fmt

let validate t =
  let check_distinct what names =
    let seen = Hashtbl.create 16 in
    List.iter
      (fun n ->
        if Hashtbl.mem seen n then invalid "%s: duplicate %s %s" t.name what n;
        Hashtbl.add seen n ())
      names
  in
  check_distinct "column" (List.map fst t.inputs @ List.map fst t.outputs);
  check_distinct "scenario" (List.map (fun s -> s.label) t.scenarios);
  let in_domain cols col v =
    match List.assoc_opt col cols with
    | None -> false
    | Some dom -> List.mem v dom
  in
  List.iter
    (fun s ->
      List.iter
        (fun (col, spec) ->
          if not (List.mem_assoc col t.inputs) then
            invalid "%s/%s: unknown input column %s" t.name s.label col;
          let vs = match spec with V v -> [ v ] | Among vs -> vs in
          if vs = [] then invalid "%s/%s: empty Among on %s" t.name s.label col;
          List.iter
            (fun v ->
              if not (in_domain t.inputs col v) then
                invalid "%s/%s: value %s not in column table %s" t.name s.label
                  v col)
            vs)
        s.when_;
      check_distinct (Printf.sprintf "input of scenario %s" s.label)
        (List.map fst s.when_);
      List.iter
        (fun (col, spec) ->
          if not (List.mem_assoc col t.outputs) then
            invalid "%s/%s: unknown output column %s" t.name s.label col;
          match spec with
          | Out v ->
              if not (in_domain t.outputs col v) then
                invalid "%s/%s: value %s not in column table %s" t.name s.label
                  v col
          | Copy src ->
              if not (List.mem_assoc src t.inputs) then
                invalid "%s/%s: Copy from non-input column %s" t.name s.label
                  src)
        s.emit;
      check_distinct (Printf.sprintf "output of scenario %s" s.label)
        (List.map fst s.emit))
    t.scenarios;
  t

let make ~name ~inputs ~outputs ~scenarios =
  validate { name; inputs; outputs; scenarios; generated = None }

let name t = t.name
let input_columns t = List.map fst t.inputs
let output_columns t = List.map fst t.outputs

let domain t col =
  match List.assoc_opt col (t.inputs @ t.outputs) with
  | Some dom -> Value.Null :: List.map Value.str dom
  | None -> invalid "%s: unknown column %s" t.name col

let scenarios t = t.scenarios

(* The box of a scenario restricted to a set of input columns: mentioned
   columns must match their spec, unmentioned ones are pinned to NULL. *)
let box_over t s cols =
  let atom col =
    match List.assoc_opt col s.when_ with
    | Some (V v) -> Expr.eq col v
    | Some (Among vs) -> Expr.isin col vs
    | None -> Expr.eq_null col
  in
  ignore t;
  Expr.conj (List.map atom cols)

let guard t s = box_over t s (input_columns t)

let output_atom col = function
  | Out v -> Expr.eq col v
  | Copy src -> Expr.Eq (Expr.Col col, Expr.Col src)

(* Column constraints.  For input column c (the i-th in order), the
   constraint is the disjunction of scenario boxes over columns 1..i; the
   one on the last input column is exact, earlier ones prune the
   incremental search.  For output column c, the constraint is the paper's
   ternary chain: box1 ? c = v1 : box2 ? c = v2 : ... : c = NULL. *)
let column_constraint t col =
  let ins = input_columns t in
  if List.mem_assoc col t.inputs then begin
    let rec prefix acc = function
      | [] -> invalid "%s: unknown input %s" t.name col
      | c :: rest ->
          if c = col then List.rev (c :: acc)
          else prefix (c :: acc) rest
    in
    let cols = prefix [] ins in
    Expr.disj (List.map (fun s -> box_over t s cols) t.scenarios)
  end
  else if List.mem_assoc col t.outputs then
    List.fold_right
      (fun s rest ->
        let out =
          match List.assoc_opt col s.emit with
          | Some spec -> output_atom col spec
          | None -> Expr.eq_null col
        in
        Expr.Ternary (guard t s, out, rest))
      t.scenarios (Expr.eq_null col)
  else invalid "%s: unknown column %s" t.name col

let to_solver_spec t =
  let mk role (cname, _dom) =
    { Solver.cname; role; domain = domain t cname }
  in
  let columns =
    List.map (mk Solver.Input) t.inputs @ List.map (mk Solver.Output) t.outputs
  in
  let constraints =
    List.map
      (fun (c, _) -> c, column_constraint t c)
      (t.inputs @ t.outputs)
  in
  Solver.make ~name:t.name ~columns ~constraints

let generate t = Solver.generate (to_solver_spec t)

let table t =
  match t.generated with
  | Some tbl -> tbl
  | None ->
      let tbl, _ = generate t in
      t.generated <- Some tbl;
      tbl

(* One table row as a readable transition: the non-NULL input cells as
   a guard, "->", the non-NULL output cells as the action — the decoded
   form `asura report` prints for uncovered rows. *)
let describe_row t i =
  let tbl = table t in
  let row = Relalg.Table.get tbl i in
  let cells cols =
    List.filter_map
      (fun c ->
        match Relalg.Table.cell tbl row c with
        | Relalg.Value.Null -> None
        | v -> Some (Printf.sprintf "%s=%s" c (Relalg.Value.to_string v)))
      cols
  in
  let side cols empty =
    match cells cols with [] -> empty | cs -> String.concat " " cs
  in
  Printf.sprintf "%s -> %s"
    (side (input_columns t) "(always)")
    (side (output_columns t) "(no action)")

let constraints_listing t =
  let buf = Buffer.create 1024 in
  Buffer.add_string buf (Printf.sprintf "-- column constraints for %s\n" t.name);
  List.iter
    (fun (c, _) ->
      Buffer.add_string buf
        (Format.asprintf "%s:@.  %a@." c Expr.pp (column_constraint t c)))
    (t.inputs @ t.outputs);
  Buffer.contents buf

let with_scenarios t scenarios =
  validate { t with scenarios; generated = None }

let map_scenario t label f =
  if not (List.exists (fun s -> s.label = label) t.scenarios) then
    invalid "%s: no scenario %s" t.name label;
  with_scenarios t
    (List.map (fun s -> if s.label = label then f s else s) t.scenarios)

let drop_scenario t label =
  if not (List.exists (fun s -> s.label = label) t.scenarios) then
    invalid "%s: no scenario %s" t.name label;
  with_scenarios t (List.filter (fun s -> s.label <> label) t.scenarios)
