type role = Input | Output
type column = { cname : string; role : role; domain : Value.t list }

type column_stats = { column : string; considered : int; kept : int }

type stats = {
  candidates : int;
  evaluations : int;
  per_column : (string * int) list;
  pruning : column_stats list;
}

let pruned c = c.considered - c.kept

let obs_reg = lazy (Obs.Metrics.registry "solver")

let obs_counter name = Obs.Metrics.counter (Lazy.force obs_reg) name

exception Invalid_spec of string

let invalid fmt = Printf.ksprintf (fun s -> raise (Invalid_spec s)) fmt

(* The extension plan of a spec, built once by [make].  Step [i] adds
   column [i] of the order to every surviving row, trying each value of
   its domain, and applies the constraints whose columns are then all
   bound.  Each constraint is split around the new column: a part that
   does not read it has one value per parent row and is decided once
   per parent, the rest is tested per candidate.

   A step also records, for every row it keeps, the ids of the
   disjuncts of each of its constraints that hold on the row (a
   "family"; a constraint that is not a disjunction is a family of one).
   A later parent-only test whose conjunct list is structurally one of
   those disjuncts reads the row's ids instead of being evaluated: the
   box of a scenario over columns 1..i is its box over 1..i-1 plus one
   atom, and an output column's guards are the boxes of the last input
   step, so each row decides its scenario once.  Constraints are pure,
   so neither moves a row, a counter or an exception. *)

(* A parent-only test.  [Carried (f, id)]: disjunct [id] of family [f]
   holds on the parent row. *)
type test = Carried of int * int | Eval of Expr.t

(* The parent-only tests of a disjunction's disjuncts or a chain's
   guards, indexed by what decides them: per carried family, the
   indices whose test is each id; then the evaluated ones. *)
type lookup = {
  carried : (int * int list array) list;
  evaluated : (int * test) list;
}

type node =
  | Fresh of Expr.t
      (** reads the new column: compiled whole, run per candidate *)
  | Equal of Expr.operand
      (** the new column equals a constant or a parent column *)
  | Conj of test * node list
  | Disj of node list array * lookup
      (** each disjunct's parts that read the new column *)
  | Chain of node array * node * lookup
      (** first-match chain: the arm of the first guard that holds *)

type check = {
  node : node;
  record : (int * int array) option;
      (** the family recorded from this check's survivors, when a later
          step reads it: its number and each disjunct's id *)
}

type extension = {
  col : column;
  checks : check list;  (** the constraints ready at this step *)
  fns : string list;  (** the functions they call, in compile order *)
  carry : int list;  (** the families rows carry past this step *)
}

let rec flatten split acc e =
  match split e with
  | Some (a, b) -> flatten split (flatten split acc b) a
  | None -> e :: acc

let conjuncts = flatten (function Expr.And (a, b) -> Some (a, b) | _ -> None) []
let disjuncts = flatten (function Expr.Or (a, b) -> Some (a, b) | _ -> None) []

let plan_extensions order constraints =
  (* conjunct list -> the family and id that carry it *)
  let facts = Hashtbl.create 64 in
  let sizes = Hashtbl.create 16 and born = Hashtbl.create 16 in
  let last_use = Hashtbl.create 16 in
  let pending =
    ref
      (List.filter_map
         (fun c ->
           match List.assoc_opt c.cname constraints with
           | None | Some Expr.True -> None
           | Some e -> Some (Expr.free_columns e, e))
         order)
  in
  let bound = Hashtbl.create 16 in
  let plan_step i col =
    Hashtbl.add bound col.cname ();
    let ready, waiting =
      List.partition
        (fun (free, _) -> List.for_all (Hashtbl.mem bound) free)
        !pending
    in
    pending := waiting;
    let reads_fresh e = List.mem col.cname (Expr.free_columns e) in
    let test ps =
      match Hashtbl.find_opt facts ps with
      | Some (f, id) ->
          Hashtbl.replace last_use f i;
          Carried (f, id)
      | None -> Eval (Expr.conj ps)
    in
    let split e =
      let ps, cs =
        List.partition (fun c -> not (reads_fresh c)) (conjuncts e)
      in
      (test ps, cs)
    in
    let lookup tests =
      let carried = Hashtbl.create 4 and evaluated = ref [] in
      for j = Array.length tests - 1 downto 0 do
        match tests.(j) with
        | Carried (f, id) ->
            let by_id =
              match Hashtbl.find_opt carried f with
              | Some a -> a
              | None ->
                  let a = Array.make (Hashtbl.find sizes f) [] in
                  Hashtbl.add carried f a;
                  a
            in
            by_id.(id) <- j :: by_id.(id)
        | t -> evaluated := (j, t) :: !evaluated
      done;
      {
        carried = Hashtbl.fold (fun f a acc -> (f, a) :: acc) carried [];
        evaluated = !evaluated;
      }
    in
    let fresh = Expr.Col col.cname in
    let rec node (e : Expr.t) =
      match e with
      | _ when not (reads_fresh e) -> Conj (test (conjuncts e), [])
      | Eq (a, o) when a = fresh && o <> fresh -> Equal o
      | Eq (o, a) when a = fresh && o <> fresh -> Equal o
      | And _ ->
          let t, cs = split e in
          Conj (t, List.map node cs)
      | Or _ ->
          let ds = Array.of_list (List.map split (disjuncts e)) in
          Disj
            ( Array.map (fun (_, cs) -> List.map node cs) ds,
              lookup (Array.map fst ds) )
      | Ternary (g, _, _) when not (reads_fresh g) ->
          let rec arms acc = function
            | Expr.Ternary (g, a, b) when not (reads_fresh g) ->
                arms ((test (conjuncts g), node a) :: acc) b
            | last -> (Array.of_list (List.rev acc), node last)
          in
          let arms, otherwise = arms [] e in
          Chain (Array.map snd arms, otherwise, lookup (Array.map fst arms))
      | e -> Fresh e
    in
    let checks = List.map (fun (_, e) -> (e, node e)) ready in
    (* only now: a step's own constraints cannot read its families *)
    let checks =
      List.map
        (fun (e, node) ->
          if not (reads_fresh e) then { node; record = None }
          else begin
            let f = Hashtbl.length sizes in
            let keys = Hashtbl.create 16 in
            let id d =
              let key = conjuncts d in
              match Hashtbl.find_opt keys key with
              | Some id -> id
              | None ->
                  let id = Hashtbl.length keys in
                  Hashtbl.add keys key id;
                  Hashtbl.replace facts key (f, id);
                  id
            in
            let ids = Array.of_list (List.map id (disjuncts e)) in
            Hashtbl.add sizes f (Hashtbl.length keys);
            Hashtbl.add born f i;
            { node; record = Some (f, ids) }
          end)
        checks
    in
    (col, checks, List.concat_map (fun (_, e) -> Expr.functions e) ready)
  in
  let steps = List.mapi plan_step order in
  (* record a family only if a later step reads it, and carry it only
     up to that step *)
  List.mapi
    (fun i (col, checks, fns) ->
      let used = function
        | Some (f, _) as r when Hashtbl.mem last_use f -> r
        | _ -> None
      in
      let carry =
        Hashtbl.fold
          (fun f last acc ->
            if Hashtbl.find born f <= i && i < last then f :: acc else acc)
          last_use []
      in
      {
        col;
        checks = List.map (fun c -> { c with record = used c.record }) checks;
        fns;
        carry = List.sort compare carry;
      })
    steps

type spec = {
  sname : string;
  cols : column list;
  constraints : (string * Expr.t) list;
  plan : extension list;
}

let make ~name ~columns ~constraints =
  let names = List.map (fun c -> c.cname) columns in
  let seen = Hashtbl.create 16 in
  List.iter
    (fun c ->
      if Hashtbl.mem seen c then invalid "duplicate column %s in %s" c name;
      Hashtbl.add seen c ())
    names;
  List.iter
    (fun c ->
      if c.domain = [] then invalid "empty domain for column %s in %s" c.cname name)
    columns;
  List.iter
    (fun (c, e) ->
      if not (Hashtbl.mem seen c) then
        invalid "constraint on unknown column %s in %s" c name;
      List.iter
        (fun fc ->
          if not (Hashtbl.mem seen fc) then
            invalid "constraint on %s in %s mentions unknown column %s" c name fc)
        (Expr.free_columns e))
    constraints;
  let order =
    List.filter (fun c -> c.role = Input) columns
    @ List.filter (fun c -> c.role = Output) columns
  in
  {
    sname = name;
    cols = columns;
    constraints;
    plan = plan_extensions order constraints;
  }

let name s = s.sname
let columns s = s.cols
let inputs s = List.filter (fun c -> c.role = Input) s.cols
let outputs s = List.filter (fun c -> c.role = Output) s.cols

let constraint_of s c =
  if not (List.exists (fun col -> col.cname = c) s.cols) then
    invalid "no column %s in %s" c s.sname;
  match List.assoc_opt c s.constraints with Some e -> e | None -> Expr.True

let search_space s =
  List.fold_left (fun acc c -> acc * List.length c.domain) 1 s.cols

(* Column addition order: inputs in declaration order, then outputs in
   declaration order — the paper first solves the input combinations, then
   extends with one output column at a time. *)
let ordered_columns s = inputs s @ outputs s

let generate_reference ?funcs s =
  Obs.Trace.with_span ~cat:"solver"
    ~args:[ "table", Obs.Json.Str s.sname ]
    "solver.generate"
  @@ fun () ->
  let order = ordered_columns s in
  let evaluations = ref 0 and candidates = ref 0 in
  let per_column = ref [] in
  let pruning = ref [] in
  (* Constraints not yet applied, with their free-column sets. *)
  let pending =
    ref
      (List.map
         (fun c ->
           let e = constraint_of s c.cname in
           Expr.free_columns e, e)
         order
       |> List.filter (fun (_, e) -> e <> Expr.True))
  in
  let bound = Hashtbl.create 16 in
  let step (schema, rows) col =
    Obs.Trace.with_span ~cat:"solver"
      ~args:[ "column", Obs.Json.Str col.cname ]
      "solver.extend"
    @@ fun () ->
    let candidates_before = !candidates in
    Hashtbl.add bound col.cname ();
    let schema' = Schema.append schema [ col.cname ] in
    let ready, waiting =
      List.partition
        (fun (free, _) -> List.for_all (Hashtbl.mem bound) free)
        !pending
    in
    pending := waiting;
    let applicable =
      List.map (fun (_, e) -> Expr.compile ?funcs schema' e) ready
    in
    (* Extend each surviving row by every domain value of the new column,
       keeping the candidates that pass the newly-applicable constraints. *)
    let extend row v =
      incr candidates;
      let row' = Array.append row [| v |] in
      let ok =
        List.for_all
          (fun check ->
            incr evaluations;
            check row')
          applicable
      in
      if ok then Some row' else None
    in
    let rows' =
      List.concat_map (fun row -> List.filter_map (extend row) col.domain) rows
    in
    let kept = List.length rows' in
    per_column := (col.cname, kept) :: !per_column;
    let considered = !candidates - candidates_before in
    Obs.Flightrec.record ~tag:Obs.Flightrec.tag_solver_extend ~a:considered
      ~b:kept ~c:0;
    pruning := { column = col.cname; considered; kept } :: !pruning;
    (* per-constraint pruning attribution: candidate rows this column's
       newly-applicable constraints eliminated, so the most selective
       constraints are visible in metrics snapshots and run manifests *)
    Obs.Metrics.add
      (obs_counter (Printf.sprintf "pruned.%s.%s" s.sname col.cname))
      (considered - kept);
    schema', rows'
  in
  let schema, rows =
    List.fold_left step (Schema.of_list [], [ [||] ]) order
  in
  Obs.Metrics.add (obs_counter "candidates") !candidates;
  Obs.Metrics.add (obs_counter "evaluations") !evaluations;
  Obs.Metrics.add (obs_counter "rows_generated") (List.length rows);
  Obs.Flightrec.record ~tag:Obs.Flightrec.tag_solver_gen
    ~a:(List.length rows) ~b:(List.length order) ~c:0;
  let table = Table.of_rows ~name:s.sname schema rows in
  Obs.Metrics.add (obs_counter "storage_bytes") (Table.storage_bytes table);
  ( table,
    {
      candidates = !candidates;
      evaluations = !evaluations;
      per_column = List.rev !per_column;
      pruning = List.rev !pruning;
    } )

(* The disjunct ids each row carries for one family: row [r]'s ids,
   ascending, are [ids.(off.(r))] to [ids.(off.(r + 1) - 1)]. *)
type store = { off : int array; ids : int array }

let store_of_lists sets =
  let off = Array.make (Array.length sets + 1) 0 in
  Array.iteri (fun r ids -> off.(r + 1) <- off.(r) + List.length ids) sets;
  { off; ids = Array.of_list (List.concat (Array.to_list sets)) }

let ids_of s r =
  List.init (s.off.(r + 1) - s.off.(r)) (fun x -> s.ids.(s.off.(r) + x))

(* Vectorized row extension along the spec's plan: the same candidate
   enumeration as the reference [step] — parent-major, domain order,
   newly-applicable constraints applied in the same order — but over
   columnar code buffers with a selection vector instead of a boxed
   [Value] array per candidate.  Candidate [k] of a chunk extends parent
   [k / d] with the [k mod d]-th value of the new column.  Parent-only
   tests run once per parent, reading carried disjunct ids where the
   plan found them; a constraint functional in the new column (a chain
   whose arms are [c = const], [c = parent_col] or [c IS NULL]) emits
   its domain positions per parent instead of testing all [d] values.
   Survivors are gathered straight from the parent columns.

   All telemetry is counter-exact with the reference path: candidates
   per step is [rows * |domain|] either way, and applying constraint [i]
   only to the survivors of constraints [1..i-1] performs exactly the
   evaluations of the reference's per-candidate short-circuit
   [List.for_all].  Chunks over parent rows merge in chunk order, so row
   order (and hence every downstream golden, including coverage row
   indices) is identical too.  The new column's dictionary is interned
   on the spawning domain before the parallel region; workers only read. *)
let generate ?funcs s =
  Obs.Trace.with_span ~cat:"solver"
    ~args:[ "table", Obs.Json.Str s.sname ]
    "solver.generate"
  @@ fun () ->
  let evaluations = ref 0 and candidates = ref 0 in
  let per_column = ref [] in
  let pruning = ref [] in
  (* plan-observatory accounting: one "extend" op per column, recorded
     as a single solver.generate plan after the fold (spawning domain
     only; workers never touch obs) *)
  let t_gen = Obs.Clock.now_ns () in
  let plan_ops = ref [] in
  let plan_cost = ref 0. in
  let resolve = Option.value funcs ~default:Expr.no_funcs in
  (* state: one (dict, codes) pair per bound column, the carried
     families, [nrows] valid rows *)
  let step (schema, cols, carried, nrows) x =
    let col = x.col in
    Obs.Trace.with_span ~cat:"solver"
      ~args:[ "column", Obs.Json.Str col.cname ]
      "solver.extend"
    @@ fun () ->
    let t_step = Obs.Clock.now_ns () in
    let candidates_before = !candidates in
    (* the reference compiles the ready constraints here, so an unknown
       function raises even if no row would reach it *)
    List.iter
      (fun f -> if resolve f = None then raise (Expr.Unknown_function f))
      x.fns;
    let schema' = Schema.append schema [ col.cname ] in
    let arity = Array.length cols in
    let dom = Array.of_list col.domain in
    let d = Array.length dom in
    let ndict = Dict.create () in
    let dom_codes = Array.map (Dict.intern ndict) dom in
    let dicts = Array.append (Array.map fst cols) [| ndict |] in
    (* the domain positions holding each code of the new column *)
    let by_code =
      let ps = Array.make (Dict.size ndict) [] in
      for i = d - 1 downto 0 do
        ps.(dom_codes.(i)) <- i :: ps.(dom_codes.(i))
      done;
      Array.map Array.of_list ps
    in
    let nowhere = [||] in
    let run_chunk parents =
      let np = Array.length parents in
      let ncand = np * d in
      (* a column is expanded into candidate order only when a part of a
         check that reads the new column reads it too *)
      let expanded = Array.make (arity + 1) None in
      let cand_col j =
        match expanded.(j) with
        | Some cs -> cs
        | None ->
            let cs =
              if j < arity then
                let src = snd cols.(j) in
                Array.init ncand (fun k -> src.(parents.(k / d)))
              else Array.init ncand (fun k -> dom_codes.(k mod d))
            in
            expanded.(j) <- Some cs;
            cs
      in
      let compile codes e =
        Expr.compile_columns ?funcs schema'
          ~dict:(fun j -> dicts.(j))
          ~codes e
      in
      (* every function below is staged: [f p] does the parent-only work
         for chunk parent [p], and its result runs per candidate *)
      let test = function
        | Carried (f, id) ->
            let s = List.assoc f carried in
            fun p -> List.mem id (ids_of s parents.(p))
        | Eval e ->
            let g = compile (fun j -> snd cols.(j)) e in
            fun p -> g parents.(p)
      in
      (* the indices whose test holds on parent [p] *)
      let holding lk =
        let carried =
          List.map (fun (f, by_id) -> (List.assoc f carried, by_id)) lk.carried
        and evaluated = List.map (fun (j, t) -> (j, test t)) lk.evaluated in
        fun p ->
          List.fold_left
            (fun acc (s, by_id) ->
              List.fold_left
                (fun acc id -> List.rev_append by_id.(id) acc)
                acc (ids_of s parents.(p)))
            (List.filter_map
               (fun (j, t) -> if t p then Some j else None)
               evaluated)
            carried
      in
      (* the least index whose test holds on parent [p], or [n] *)
      let first n lk =
        let holding = holding lk in
        fun p -> List.fold_left min n (holding p)
      in
      let never _ = false in
      let all gs k = List.for_all (fun g -> g k) gs in
      let rec pred = function
        | Fresh e ->
            let f = compile cand_col e in
            fun _ -> f
        | Equal o ->
            let f = compile cand_col (Expr.Eq (Expr.Col col.cname, o)) in
            fun _ -> f
        | Conj (t, ns) ->
            let t = test t and fs = List.map pred ns in
            fun p -> if t p then all (List.map (fun f -> f p) fs) else never
        | Disj (ds, lk) ->
            let live = disj ds lk in
            fun p ->
              let gs = live p in
              fun k -> List.exists (fun (_, g) -> all g k) gs
        | Chain (arms, otherwise, lk) ->
            let n = Array.length arms in
            let pick = first n lk in
            let arms = Array.map pred (Array.append arms [| otherwise |]) in
            fun p -> arms.(pick p) p
      (* the live disjuncts of parent [p]: index and candidate tests *)
      and disj ds lk =
        let holding = holding lk and ds = Array.map (List.map pred) ds in
        fun p ->
          List.map (fun j -> (j, List.map (fun f -> f p) ds.(j))) (holding p)
      in
      let translations = Array.make arity None in
      let translation j =
        match translations.(j) with
        | Some map -> map
        | None ->
            let map = Dict.translate ~from:dicts.(j) ~into:ndict in
            translations.(j) <- Some map;
            map
      in
      (* the domain positions a functional node admits for parent [p] *)
      let rec positions = function
        | Equal (Expr.Const v) ->
            let ps =
              match Dict.code_opt ndict v with
              | Some c -> by_code.(c)
              | None -> nowhere
            in
            Some (fun _ -> ps)
        | Equal (Expr.Col c) ->
            let j = Schema.index schema' c in
            let map = translation j in
            let src = snd cols.(j) in
            Some
              (fun p ->
                let c = map.(src.(parents.(p))) in
                if c < 0 then nowhere else by_code.(c))
        | Chain (arms, otherwise, lk) ->
            let arms =
              Array.map positions (Array.append arms [| otherwise |])
            in
            if Array.exists Option.is_none arms then None
            else
              let arms = Array.map Option.get arms in
              let pick = first (Array.length arms - 1) lk in
              Some (fun p -> arms.(pick p) p)
        | Fresh _ | Conj _ | Disj _ -> None
      in
      (* each check: how it filters, and the ids it records per survivor *)
      let compiled =
        List.map
          (fun c ->
            let how =
              match positions c.node with
              | Some pos -> `Emit pos
              | None -> `Test (pred c.node)
            in
            let held =
              match (c.record, c.node) with
              | None, _ -> None
              | Some (f, ids), Disj (ds, lk) ->
                  let live = disj ds lk in
                  Some
                    ( f,
                      fun p ->
                        let gs = live p in
                        fun k ->
                          List.sort_uniq compare
                            (List.filter_map
                               (fun (j, g) ->
                                 if all g k then Some ids.(j) else None)
                               gs) )
              | Some (f, _), _ -> Some (f, fun _ _ -> [ 0 ])
            in
            (how, held))
          x.checks
      in
      (* [stage p] once per parent of the selected candidates [at 0],
         [at 1], ..., which are parent-major; its result applied to each *)
      let per_candidate n at stage =
        let last = ref (-1) and g = ref (fun _ -> assert false) in
        Array.init n (fun i ->
            let k = at i in
            if k / d <> !last then begin
              last := k / d;
              g := stage !last
            end;
            !g k)
      in
      (* [None] is every candidate, in order *)
      let sel = ref None and m = ref ncand and evals = ref 0 in
      List.iter
        (fun (how, _) ->
          evals := !evals + !m;
          let cur = !sel in
          let at i = match cur with None -> i | Some a -> a.(i) in
          let keep = Array.make (max 1 !m) 0 and n = ref 0 in
          let push k =
            keep.(!n) <- k;
            incr n
          in
          let filter f =
            Array.iteri
              (fun i ok -> if ok then push (at i))
              (per_candidate !m at f)
          in
          (match (how, cur) with
          | `Emit pos, None ->
              for p = 0 to np - 1 do
                Array.iter (fun j -> push ((p * d) + j)) (pos p)
              done
          | `Emit pos, Some _ ->
              filter (fun p ->
                  let ps = pos p in
                  fun k -> Array.exists (Int.equal (k mod d)) ps)
          | `Test f, _ -> filter f);
          sel := Some keep;
          m := !n)
        compiled;
      let m = !m and sel = !sel in
      let at i = match sel with None -> i | Some a -> a.(i) in
      (* the ids each survivor holds of the families this step records *)
      let recorded =
        List.filter_map
          (fun (_, held) ->
            Option.map (fun (f, held) -> (f, per_candidate m at held)) held)
          compiled
      in
      ( Array.init m (fun i -> parents.(at i / d)),
        Array.init m (fun i -> at i mod d),
        ncand,
        !evals,
        recorded )
    in
    let parts =
      Par.Pool.map_chunks ~min_chunk:64 run_chunk (Array.init nrows Fun.id)
    in
    let concat f = Array.concat (Array.to_list (Array.map f parts)) in
    (* each survivor's parent row and domain position *)
    let rows = concat (fun (r, _, _, _, _) -> r) in
    let positions = concat (fun (_, p, _, _, _) -> p) in
    let kept = Array.length rows in
    let gather f =
      let dst = Array.make (max 1 kept) 0 in
      for i = 0 to kept - 1 do
        dst.(i) <- f i
      done;
      dst
    in
    (* a step that keeps every parent row once, in order (one value per
       row, as an output column's chain gives), passes the parent
       columns and carried ids on unchanged: no step mutates them *)
    let unchanged =
      kept = nrows
      &&
      let rec from i = i = kept || (rows.(i) = i && from (i + 1)) in
      from 0
    in
    let out_cols =
      Array.init (arity + 1) (fun j ->
          if j = arity then gather (fun i -> dom_codes.(positions.(i)))
          else if unchanged then snd cols.(j)
          else
            let src = snd cols.(j) in
            gather (fun i -> src.(rows.(i))))
    in
    let carried' =
      List.map
        (fun f ->
          match List.assoc_opt f carried with
          | Some s when unchanged -> (f, s)
          | Some s -> (f, store_of_lists (Array.map (ids_of s) rows))
          | None ->
              let sets = concat (fun (_, _, _, _, r) -> List.assoc f r) in
              (f, store_of_lists sets))
        x.carry
    in
    Array.iter
      (fun (_, _, c, e, _) ->
        candidates := !candidates + c;
        evaluations := !evaluations + e)
      parts;
    per_column := (col.cname, kept) :: !per_column;
    let considered = !candidates - candidates_before in
    Obs.Flightrec.record ~tag:Obs.Flightrec.tag_solver_extend ~a:considered
      ~b:kept ~c:0;
    pruning := { column = col.cname; considered; kept } :: !pruning;
    Obs.Metrics.add
      (obs_counter (Printf.sprintf "pruned.%s.%s" s.sname col.cname))
      (considered - kept);
    if Obs.Config.on () then begin
      let considered_f = float_of_int considered in
      let nchecks = List.length x.checks in
      (* uninformed textbook half per newly-ready constraint — the same
         default the planner uses for registered functions; the misest
         column of sys.plans shows how far off that is per column *)
      let est_rows = considered_f *. (0.5 ** float_of_int nchecks) in
      plan_cost := !plan_cost +. considered_f;
      plan_ops :=
        {
          Obs.Planlog.op =
            Printf.sprintf "extend %s (domain=%d, checks=%d)" col.cname d
              nchecks;
          est_rows;
          est_cost = !plan_cost;
          actual_rows = kept;
          actual_ns = Int64.to_float (Obs.Clock.since t_step);
          batches = Array.length parts;
        }
        :: !plan_ops
    end;
    ( schema',
      Array.init (arity + 1) (fun j -> (dicts.(j), out_cols.(j))),
      carried',
      kept )
  in
  let schema, cols, _, nrows =
    List.fold_left step (Schema.of_list [], [||], [], 1) s.plan
  in
  Obs.Metrics.add (obs_counter "candidates") !candidates;
  Obs.Metrics.add (obs_counter "evaluations") !evaluations;
  Obs.Metrics.add (obs_counter "rows_generated") nrows;
  Obs.Flightrec.record ~tag:Obs.Flightrec.tag_solver_gen ~a:nrows
    ~b:(List.length s.plan) ~c:0;
  (if Obs.Config.on () then
     let ops = List.rev !plan_ops in
     (* structural fingerprint: table, column order, domain sizes and
        per-column constraint counts — the extension "plan" the column
        ordering heuristic chose *)
     let fingerprint =
       Obs.Planlog.fingerprint
         ("solver-generate" :: s.sname
         :: List.map (fun (o : Obs.Planlog.op) -> o.op) ops)
     in
     Obs.Planlog.record ~site:"solver.generate" ~fingerprint
       ~query:("generate " ^ s.sname) ~est_cost:!plan_cost
       ~total_ns:(Int64.to_float (Obs.Clock.since t_gen))
       ~rows_out:nrows ops);
  let table = Table.of_columns ~name:s.sname schema ~nrows cols in
  Obs.Metrics.add (obs_counter "storage_bytes") (Table.storage_bytes table);
  ( table,
    {
      candidates = !candidates;
      evaluations = !evaluations;
      per_column = List.rev !per_column;
      pruning = List.rev !pruning;
    } )

let generate_monolithic ?funcs s =
  Obs.Trace.with_span ~cat:"solver"
    ~args:[ "table", Obs.Json.Str s.sname ]
    "solver.generate_monolithic"
  @@ fun () ->
  let order = ordered_columns s in
  let schema = Schema.of_list (List.map (fun c -> c.cname) order) in
  let conjunction =
    Expr.compile ?funcs schema
      (Expr.conj (List.map (fun c -> constraint_of s c.cname) order))
  in
  (* Enumerate the full cross product without materializing it as a list of
     lists: depth-first over the domains. *)
  let domains = Array.of_list (List.map (fun c -> Array.of_list c.domain) order) in
  let n = Array.length domains in
  (* one evaluation per candidate: the whole conjunction at once *)
  let candidates = ref 0 in
  let kept = ref [] in
  let row = Array.make n Value.Null in
  let rec enum i =
    if i = n then begin
      incr candidates;
      let r = Array.sub row 0 n in
      if conjunction r then kept := r :: !kept
    end
    else
      Array.iter
        (fun v ->
          row.(i) <- v;
          enum (i + 1))
        domains.(i)
  in
  (* no columns: the product of no domains is the one empty row *)
  enum 0;
  let rows = List.rev !kept in
  Obs.Metrics.add
    (obs_counter (Printf.sprintf "pruned.%s.<full product>" s.sname))
    (!candidates - List.length rows);
  Obs.Flightrec.record ~tag:Obs.Flightrec.tag_solver_gen
    ~a:(List.length rows) ~b:n ~c:0;
  ( Table.of_rows ~name:s.sname schema rows,
    {
      candidates = !candidates;
      evaluations = !candidates;
      per_column = [ ("<full product>", List.length rows) ];
      pruning =
        [ { column = "<full product>"; considered = !candidates;
            kept = List.length rows } ];
    } )
