module Stbl = Hashtbl.Make (String)

type column = { name : string; lits : string array }

let state name = { name; lits = [||] }
let lits name lits = { name; lits }

type rule = {
  row : int;
  slots : int array;
  codes : int array;
  out : Mstate.sym option array;
}

type t = {
  columns : string array;
  sym_codes : int array array;
      (* per slot: symbol id -> guard code, from 1; [other] for a symbol
         no guard names, including every id past the array's end *)
  lit_codes : int array array;  (* per slot: literal index -> code *)
  template : int array;
  buckets : rule array array;
      (* by discriminator code; bucket [other] serves [absent] too *)
}

let other = 0
let absent = -1

let code_of codes v =
  if v >= 0 && v < Array.length codes then Array.unsafe_get codes v else other

let outputs cols action =
  Array.map
    (fun c -> Option.map Mstate.intern (List.assoc_opt c action))
    cols

let compile ~inputs ~outputs:out_cols (rules : Mapping.Codegen.rule list) =
  let named = Array.to_list (Array.map (fun c -> c.name) inputs) in
  let extra =
    List.sort_uniq String.compare
      (List.concat_map
         (fun (r : Mapping.Codegen.rule) ->
           List.filter_map
             (fun (c, _) -> if List.mem c named then None else Some c)
             r.guard)
         rules)
  in
  let columns = Array.of_list (named @ extra) in
  let slot_of = Stbl.create 32 in
  Array.iteri (fun i c -> Stbl.replace slot_of c i) columns;
  let vocab = Array.map (fun _ -> Stbl.create 8) columns in
  let intern slot v =
    let tbl = vocab.(slot) in
    match Stbl.find_opt tbl v with
    | Some c -> c
    | None ->
        let c = Stbl.length tbl + 1 in
        Stbl.add tbl v c;
        c
  in
  let coded =
    List.map
      (fun (r : Mapping.Codegen.rule) ->
        let guard =
          List.sort compare
            (List.map
               (fun (c, v) ->
                 let slot = Stbl.find slot_of c in
                 (slot, intern slot v))
               r.guard)
        in
        let rest = List.filter (fun (slot, _) -> slot <> 0) guard in
        ( List.assoc_opt 0 guard,
          {
            row = r.row;
            slots = Array.of_list (List.map fst rest);
            codes = Array.of_list (List.map snd rest);
            out = outputs out_cols r.action;
          } ))
      rules
  in
  (* the string vocabulary becomes a direct-address array on symbol
     ids: one bounds check and one load per coded state field *)
  let sym_codes =
    Array.map
      (fun tbl ->
        let syms = Stbl.fold (fun v c acc -> (Mstate.intern v, c) :: acc) tbl [] in
        let codes =
          Array.make (1 + List.fold_left (fun m (s, _) -> max m s) (-1) syms) other
        in
        List.iter (fun (s, c) -> codes.(s) <- c) syms;
        codes)
      vocab
  in
  let lit_codes =
    Array.mapi
      (fun slot _ ->
        if slot < Array.length inputs then
          Array.map
            (fun v -> code_of sym_codes.(slot) (Mstate.intern v))
            inputs.(slot).lits
        else [||])
      columns
  in
  let template =
    Array.map (fun lc -> if Array.length lc = 0 then absent else lc.(0)) lit_codes
  in
  (* a rule constrained on the discriminator sits in its value's bucket
     only; an unconstrained one in every bucket, priority order kept *)
  let buckets =
    Array.init
      (Stbl.length vocab.(0) + 1)
      (fun b ->
        Array.of_list
          (List.filter_map
             (fun (disc, r) ->
               match disc with
               | Some c when c <> b -> None
               | Some _ | None -> Some r)
             coded))
  in
  { columns; sym_codes; lit_codes; template; buckets }

let columns t = t.columns
let binding t = Array.copy t.template

let set t b slot v = b.(slot) <- code_of t.sym_codes.(slot) v

let pick t b slot i = b.(slot) <- t.lit_codes.(slot).(i)

let matches r b =
  let n = Array.length r.slots in
  let rec go k =
    k = n
    || b.(Array.unsafe_get r.slots k) = Array.unsafe_get r.codes k
       && go (k + 1)
  in
  go 0

let find t b =
  let bucket = t.buckets.(max other b.(0)) in
  let n = Array.length bucket in
  let rec scan i =
    if i = n then None
    else
      let r = Array.unsafe_get bucket i in
      if matches r b then Some r else scan (i + 1)
  in
  scan 0
