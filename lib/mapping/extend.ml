open Relalg

let d_inputs = Protocol.Dir_controller.input_columns
let d_outputs = Protocol.Dir_controller.output_columns
let input_columns = d_inputs @ [ "qstatus"; "dqstatus"; "fdctx" ]
let output_columns = d_outputs @ [ "fdback" ]

let schema = Schema.of_list (input_columns @ output_columns)

let v = Value.str
let null = Value.Null

(* Build one ED row from a D row: the D inputs, the three implementation
   inputs, then either the D outputs or an override. *)
let ed_row d_schema d_row ~qstatus ~dqstatus ~fdctx ~outputs =
  let inputs =
    Array.map
      (fun c -> d_row.(Schema.index d_schema c))
      (Array.of_list d_inputs)
  in
  Array.concat [ inputs; [| qstatus; dqstatus; fdctx |]; outputs ]

let out_idx c =
  let rec find i = function
    | [] -> invalid_arg ("Extend.out_idx: " ^ c)
    | x :: _ when x = c -> i
    | _ :: rest -> find (i + 1) rest
  in
  find 0 output_columns

let outputs_with cells =
  let out = Array.make (List.length output_columns) null in
  List.iter (fun (c, x) -> out.(out_idx c) <- x) cells;
  out

let retry_outputs =
  outputs_with
    [
      "locmsg", v "retry"; "locmsgsrc", v "home"; "locmsgdest", v "local";
      "locmsgres", v "locq";
    ]

let feedback_outputs = outputs_with [ "fdback", v "dfdback" ]

let generate () =
  let d = Protocol.Dir_controller.table () in
  let d_schema = Table.schema d in
  let get row c = row.(Schema.index d_schema c) in
  let original_outputs row =
    Array.append
      (Array.map
         (fun c -> row.(Schema.index d_schema c))
         (Array.of_list d_outputs))
      [| null |]
  in
  let is_request row = Value.equal (get row "inmsgres") (v "reqq") in
  let needs_update row = Value.equal (get row "dirwr") (v "yes") in
  let expand row =
    if is_request row then
      [
        ed_row d_schema row ~qstatus:(v "Full") ~dqstatus:null ~fdctx:null
          ~outputs:retry_outputs;
        ed_row d_schema row ~qstatus:(v "NotFull") ~dqstatus:null ~fdctx:null
          ~outputs:(original_outputs row);
      ]
    else if needs_update row then begin
      (* The deferred variant reinjects the response through the feedback
         path; the dfdback request replays it once the queues drain. *)
      let ctx = get row "inmsg" in
      let replay_inputs =
        Array.map
          (fun c ->
            match c with
            | "inmsg" -> v "dfdback"
            | "inmsgsrc" | "inmsgdest" -> v "home"
            | "inmsgres" -> v "reqq"
            | _ -> get row c)
          (Array.of_list d_inputs)
      in
      let replay ~qstatus ~dqstatus ~outputs =
        Array.concat [ replay_inputs; [| qstatus; dqstatus; ctx |]; outputs ]
      in
      [
        ed_row d_schema row ~qstatus:null ~dqstatus:(v "Full") ~fdctx:null
          ~outputs:feedback_outputs;
        ed_row d_schema row ~qstatus:null ~dqstatus:(v "NotFull") ~fdctx:null
          ~outputs:(original_outputs row);
        replay ~qstatus:(v "NotFull") ~dqstatus:(v "NotFull")
          ~outputs:(original_outputs row);
        replay ~qstatus:(v "NotFull") ~dqstatus:(v "Full")
          ~outputs:feedback_outputs;
        replay ~qstatus:(v "Full") ~dqstatus:null ~outputs:feedback_outputs;
      ]
    end
    else
      [
        ed_row d_schema row ~qstatus:null ~dqstatus:null ~fdctx:null
          ~outputs:(original_outputs row);
      ]
  in
  Obs.Planlog.with_site "mapping.extend" @@ fun () ->
  Planner.distinct
    (Table.of_rows ~name:"ED" schema
       (List.concat
          (List.rev (Table.fold (fun acc row -> expand row :: acc) [] d))))

let cache = ref None

let ed () =
  match !cache with
  | Some t -> t
  | None ->
      let t = generate () in
      cache := Some t;
      t

let database () = Database.add (Protocol.database ()) (ed ())
