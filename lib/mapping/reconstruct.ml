open Relalg

type outcome = {
  rebuilt_ed : Table.t;
  ed_preserved : bool;
  d_preserved : bool;
  missing_rows : Table.t;
}

let join_side db side =
  let tables =
    List.filter_map
      (fun (g : Partition.group) ->
        if g.side = side then Some (Database.find db g.table_name) else None)
      Partition.groups
  in
  let on = List.map (fun c -> c, c) Extend.input_columns in
  match tables with
  | [] -> invalid_arg "Reconstruct.join_side"
  | first :: rest ->
      Obs.Planlog.with_site "mapping.reconstruct" @@ fun () ->
      List.fold_left (fun acc t -> Planner.equi_join ~on acc t) first rest

let reconstruct db =
  let request = join_side db `Request and response = join_side db `Response in
  let full_order = Extend.input_columns @ Extend.output_columns in
  (* The response side carries no remote-message columns (responses never
     snoop), so the missing columns are NULL (no-op), all read from one
     shared one-value dictionary. *)
  let nulls = Dict.create () in
  let null = Dict.intern nulls Value.Null in
  let complete t =
    let n = Table.cardinality t in
    let null_codes = Array.make n null in
    Table.of_columns ~name:(Table.name t) (Schema.of_list full_order)
      ~nrows:n
      (Array.of_list
         (List.map
            (fun c ->
              match Schema.index_opt (Table.schema t) c with
              | Some j -> (Table.dict t j, Table.codes t j)
              | None -> (nulls, null_codes))
            full_order))
  in
  Obs.Planlog.with_site "mapping.reconstruct" @@ fun () ->
  Table.with_name "ED-rebuilt"
    (Planner.union (complete request) (complete response))

let check ?db () =
  let db = match db with Some db -> db | None -> Partition.run () in
  let rebuilt_ed = reconstruct db in
  let ed = Extend.ed () in
  let ed_preserved = Table.equal_as_sets rebuilt_ed ed in
  (* D is recovered from the rebuilt ED by taking the unblocked variants
     and dropping the implementation columns. *)
  let unblocked =
    Expr.(
      eq_null "fdctx"
      &&& Not (eq "inmsg" "dfdback")
      &&& (eq "qstatus" "NotFull" ||| eq "dqstatus" "NotFull"
          ||| (eq_null "qstatus" &&& eq_null "dqstatus")))
  in
  let d = Protocol.Dir_controller.table () in
  let d_cols = Schema.columns (Table.schema d) in
  Obs.Planlog.with_site "mapping.reconstruct" @@ fun () ->
  let projected =
    Planner.distinct (Planner.select ~keep:d_cols unblocked rebuilt_ed)
  in
  let d_preserved = Table.subset d projected in
  let missing_rows =
    Table.with_name "missing-from-reconstruction" (Planner.except d projected)
  in
  { rebuilt_ed; ed_preserved; d_preserved; missing_rows }
