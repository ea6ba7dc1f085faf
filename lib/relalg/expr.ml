type operand = Col of string | Const of Value.t

type cmp = Lt | Le | Gt | Ge

type t =
  | True
  | False
  | Eq of operand * operand
  | Neq of operand * operand
  | Cmp of cmp * operand * operand
  | In of operand * Value.t list
  | Fn of string * operand
  | And of t * t
  | Or of t * t
  | Not of t
  | Ternary of t * t * t

let cmp_holds op n =
  match op with Lt -> n < 0 | Le -> n <= 0 | Gt -> n > 0 | Ge -> n >= 0

let cmp_to_string = function Lt -> "<" | Le -> "<=" | Gt -> ">" | Ge -> ">="

type funcs = string -> (Value.t -> bool) option

exception Unknown_function of string

let no_funcs _ = None
let col c = Col c
let s x = Const (Value.Str x)
let eq c v = Eq (Col c, Const (Value.Str v))
let eq_null c = Eq (Col c, Const Value.Null)
let neq c v = Neq (Col c, Const (Value.Str v))
let isin c vs = In (Col c, List.map Value.str vs)

let conj = function
  | [] -> True
  | e :: es -> List.fold_left (fun acc x -> And (acc, x)) e es

let disj = function
  | [] -> False
  | e :: es -> List.fold_left (fun acc x -> Or (acc, x)) e es

let ( &&& ) a b = And (a, b)
let ( ||| ) a b = Or (a, b)
let ternary c a b = Ternary (c, a, b)

let free_columns e =
  let seen = Hashtbl.create 8 in
  let acc = ref [] in
  let add = function
    | Col c ->
        if not (Hashtbl.mem seen c) then begin
          Hashtbl.add seen c ();
          acc := c :: !acc
        end
    | Const _ -> ()
  in
  let rec go = function
    | True | False -> ()
    | Eq (a, b) | Neq (a, b) | Cmp (_, a, b) -> add a; add b
    | In (a, _) | Fn (_, a) -> add a
    | And (a, b) | Or (a, b) -> go a; go b
    | Not a -> go a
    | Ternary (c, a, b) -> go c; go a; go b
  in
  go e;
  List.rev !acc

(* Pre-order, left to right: the order [compile] resolves them in. *)
let functions e =
  let rec go acc = function
    | True | False | Eq _ | Neq _ | Cmp _ | In _ -> acc
    | Fn (f, _) -> f :: acc
    | And (a, b) | Or (a, b) -> go (go acc a) b
    | Not a -> go acc a
    | Ternary (c, a, b) -> go (go (go acc c) a) b
  in
  List.rev (go [] e)

let eval ?(funcs = no_funcs) schema row e =
  let operand = function
    | Col c -> row.(Schema.index schema c)
    | Const v -> v
  in
  let rec go = function
    | True -> true
    | False -> false
    | Eq (a, b) -> Value.equal (operand a) (operand b)
    | Neq (a, b) -> not (Value.equal (operand a) (operand b))
    | Cmp (op, a, b) -> cmp_holds op (Value.order (operand a) (operand b))
    | In (a, vs) ->
        let v = operand a in
        List.exists (Value.equal v) vs
    | Fn (f, a) -> (
        match funcs f with
        | Some p -> p (operand a)
        | None -> raise (Unknown_function f))
    | And (a, b) -> go a && go b
    | Or (a, b) -> go a || go b
    | Not a -> not (go a)
    | Ternary (c, a, b) -> if go c then go a else go b
  in
  go e

let compile ?(funcs = no_funcs) schema e =
  let operand = function
    | Col c ->
        let i = Schema.index schema c in
        fun row -> row.(i)
    | Const v -> fun _ -> v
  in
  let rec go = function
    | True -> fun _ -> true
    | False -> fun _ -> false
    | Eq (a, b) ->
        let fa = operand a and fb = operand b in
        fun row -> Value.equal (fa row) (fb row)
    | Neq (a, b) ->
        let fa = operand a and fb = operand b in
        fun row -> not (Value.equal (fa row) (fb row))
    | Cmp (op, a, b) ->
        let fa = operand a and fb = operand b in
        fun row -> cmp_holds op (Value.order (fa row) (fb row))
    | In (a, vs) ->
        let fa = operand a in
        fun row ->
          let v = fa row in
          List.exists (Value.equal v) vs
    | Fn (f, a) -> (
        match funcs f with
        | Some p ->
            let fa = operand a in
            fun row -> p (fa row)
        | None -> raise (Unknown_function f))
    | And (a, b) ->
        let fa = go a and fb = go b in
        fun row -> fa row && fb row
    | Or (a, b) ->
        let fa = go a and fb = go b in
        fun row -> fa row || fb row
    | Not a ->
        let fa = go a in
        fun row -> not (fa row)
    | Ternary (c, a, b) ->
        let fc = go c and fa = go a and fb = go b in
        fun row -> if fc row then fa row else fb row
  in
  go e

(* Dictionary-compiled evaluator.  Column offsets, constant codes, IN
   masks and function memo tables are all resolved once against the
   table's dictionaries; the returned closure takes a row *index* and does
   integer compares on the code arrays.  Codes interned after compile time
   (a dictionary that grew under a shared buffer) fall back to decoding,
   so the closure always agrees with [eval] on the decoded row. *)
let compile_columns ?(funcs = no_funcs) schema ~dict ~codes e =
  let column c =
    let j = Schema.index schema c in
    (dict j, codes j)
  in
  let equality a b =
    match (a, b) with
    | Const va, Const vb ->
        let r = Value.equal va vb in
        fun _ -> r
    | Col c, Const v | Const v, Col c -> (
        let d, cs = column c in
        match Dict.code_opt d v with
        | Some code -> fun i -> cs.(i) = code
        | None ->
            let n = Dict.size d in
            fun i ->
              let ci = cs.(i) in
              ci >= n && Value.equal (Dict.value d ci) v)
    | Col ca, Col cb ->
        let da, csa = column ca and db, csb = column cb in
        if da == db then fun i -> csa.(i) = csb.(i)
        else
          let map = Dict.translate ~from:da ~into:db in
          let na = Array.length map and nb = Dict.size db in
          fun i ->
            let a = csa.(i) and b = csb.(i) in
            if a < na && b < nb then map.(a) = b
            else Value.equal (Dict.value da a) (Dict.value db b)
  in
  (* Dictionary codes are interning order, not value order, so ordered
     comparisons decode the cell; sys.* telemetry scans are small.  A
     per-code memo would pay off only on large low-cardinality columns. *)
  let decode_operand = function
    | Const v -> fun _ -> v
    | Col c ->
        let d, cs = column c in
        fun i -> Dict.value d cs.(i)
  in
  let rec go = function
    | True -> fun _ -> true
    | False -> fun _ -> false
    | Eq (a, b) -> equality a b
    | Neq (a, b) ->
        let f = equality a b in
        fun i -> not (f i)
    | Cmp (op, a, b) ->
        let fa = decode_operand a and fb = decode_operand b in
        fun i -> cmp_holds op (Value.order (fa i) (fb i))
    | In (Const v, vs) ->
        let r = List.exists (Value.equal v) vs in
        fun _ -> r
    | In (Col c, vs) ->
        let d, cs = column c in
        let n = Dict.size d in
        let mask = Array.make n false in
        List.iter
          (fun v ->
            match Dict.code_opt d v with
            | Some code when code < n -> mask.(code) <- true
            | _ -> ())
          vs;
        fun i ->
          let ci = cs.(i) in
          if ci < n then mask.(ci)
          else
            let v = Dict.value d ci in
            List.exists (Value.equal v) vs
    | Fn (f, a) -> (
        match funcs f with
        | None -> raise (Unknown_function f)
        | Some p -> (
            match a with
            | Const v -> fun _ -> p v
            | Col c ->
                let d, cs = column c in
                let n = Dict.size d in
                (* -1 unknown / 0 false / 1 true.  Workers may race on a
                   cell, but [p] is deterministic so they write the same
                   value — the memo only ever converges. *)
                let memo = Array.make n (-1) in
                fun i ->
                  let ci = cs.(i) in
                  if ci < n then begin
                    let m = memo.(ci) in
                    if m >= 0 then m = 1
                    else begin
                      let r = p (Dict.value d ci) in
                      memo.(ci) <- (if r then 1 else 0);
                      r
                    end
                  end
                  else p (Dict.value d ci)))
    | And (a, b) ->
        let fa = go a and fb = go b in
        fun i -> fa i && fb i
    | Or (a, b) ->
        let fa = go a and fb = go b in
        fun i -> fa i || fb i
    | Not a ->
        let fa = go a in
        fun i -> not (fa i)
    | Ternary (c, a, b) ->
        let fc = go c and fa = go a and fb = go b in
        fun i -> if fc i then fa i else fb i
  in
  go e

let pp_operand fmt = function
  | Col c -> Format.pp_print_string fmt c
  | Const v -> Format.pp_print_string fmt (Value.to_sql v)

let rec pp fmt = function
  | True -> Format.pp_print_string fmt "true"
  | False -> Format.pp_print_string fmt "false"
  | Eq (a, b) -> Format.fprintf fmt "%a = %a" pp_operand a pp_operand b
  | Neq (a, b) -> Format.fprintf fmt "%a <> %a" pp_operand a pp_operand b
  | Cmp (op, a, b) ->
      Format.fprintf fmt "%a %s %a" pp_operand a (cmp_to_string op) pp_operand b
  | In (a, vs) ->
      Format.fprintf fmt "%a in (%s)" pp_operand a
        (String.concat ", " (List.map Value.to_sql vs))
  | Fn (f, a) -> Format.fprintf fmt "%s(%a)" f pp_operand a
  | And (a, b) -> Format.fprintf fmt "(%a and %a)" pp a pp b
  | Or (a, b) -> Format.fprintf fmt "(%a or %a)" pp a pp b
  | Not a -> Format.fprintf fmt "not %a" pp a
  | Ternary (c, a, b) -> Format.fprintf fmt "(%a ? %a : %a)" pp c pp a pp b

let to_sql e =
  (* Ternaries have no SQL surface syntax; expand before rendering. *)
  let rec expand = function
    | (True | False | Eq _ | Neq _ | Cmp _ | In _ | Fn _) as atom -> atom
    | And (a, b) -> And (expand a, expand b)
    | Or (a, b) -> Or (expand a, expand b)
    | Not a -> Not (expand a)
    | Ternary (c, a, b) ->
        let c = expand c in
        Or (And (c, expand a), And (Not c, expand b))
  in
  Format.asprintf "%a" pp (expand e)
