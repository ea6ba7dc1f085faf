type t = { cols : string array; idx : (string, int) Hashtbl.t }

exception Duplicate_column of string
exception Unknown_column of string
exception Schema_clash of string
exception Incompatible_schemas of string

let of_list names =
  let cols = Array.of_list names in
  let idx = Hashtbl.create (Array.length cols) in
  Array.iteri
    (fun i c ->
      if Hashtbl.mem idx c then raise (Duplicate_column c);
      Hashtbl.add idx c i)
    cols;
  { cols; idx }

let columns s = Array.to_list s.cols
let arity s = Array.length s.cols
let mem s c = Hashtbl.mem s.idx c

let index s c =
  match Hashtbl.find_opt s.idx c with
  | Some i -> i
  | None -> raise (Unknown_column c)

let index_opt s c = Hashtbl.find_opt s.idx c
let append s extra = of_list (columns s @ extra)

let project s keep =
  List.iter (fun c -> ignore (index s c)) keep;
  of_list keep

let equal a b = columns a = columns b
let union_compatible = equal

let check_union_compatible op a b =
  if not (union_compatible a b) then
    raise
      (Incompatible_schemas
         (Printf.sprintf "%s operands are not union-compatible: (%s) vs (%s)"
            op
            (String.concat ", " (columns a))
            (String.concat ", " (columns b))))

let pp fmt s =
  Format.fprintf fmt "(%s)" (String.concat ", " (columns s))
