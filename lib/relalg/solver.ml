type role = Input | Output
type column = { cname : string; role : role; domain : Value.t list }

type spec = {
  sname : string;
  cols : column list;
  constraints : (string * Expr.t) list;
}

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
  { sname = name; cols = columns; constraints }

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
       keeping the candidates that pass the newly-applicable constraints.
       The row stream is partitioned into contiguous chunks across the
       domain pool; each chunk counts its own candidates/evaluations and
       the spawning domain merges chunk results in chunk order, so both
       the row order and the stats are identical to the sequential run. *)
    let run_chunk chunk =
      let cand = ref 0 and evals = ref 0 in
      let extend row v =
        incr cand;
        let row' = Array.append row [| v |] in
        let ok =
          List.for_all
            (fun check ->
              incr evals;
              check row')
            applicable
        in
        if ok then Some row' else None
      in
      let out =
        List.concat_map
          (fun row -> List.filter_map (extend row) col.domain)
          (Array.to_list chunk)
      in
      out, !cand, !evals
    in
    let parts =
      Par.Pool.map_chunks ~min_chunk:64 run_chunk (Array.of_list rows)
    in
    let rows' =
      List.concat (Array.to_list (Array.map (fun (r, _, _) -> r) parts))
    in
    Array.iter
      (fun (_, c, e) ->
        candidates := !candidates + c;
        evaluations := !evaluations + e)
      parts;
    let kept = List.length rows' in
    per_column := (col.cname, kept) :: !per_column;
    let considered = !candidates - candidates_before in
    Obs.Flightrec.record ~tag:Obs.Flightrec.tag_solver_extend ~a:considered
      ~b:kept ();
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
    ~a:(List.length rows) ~b:(List.length order) ();
  let table = Table.of_rows ~name:s.sname schema rows in
  Obs.Metrics.add (obs_counter "storage_bytes") (Table.storage_bytes table);
  ( table,
    {
      candidates = !candidates;
      evaluations = !evaluations;
      per_column = List.rev !per_column;
      pruning = List.rev !pruning;
    } )

(* One extension step's constraint, compiled for candidate indices.
   Candidate [k] extends parent [k / d] with the [k mod d]-th value of the
   new column [fresh], so a part of the constraint that does not read
   [fresh] has one value per parent.  Such a part is compiled by
   [parent] and evaluated once per parent (the candidates of a parent
   are consecutive, so a one-entry cache keyed by the parent serves the
   rest); only the parts that read [fresh] are compiled by [candidate]
   and run per candidate.  A conjunction checks its parent-only
   conjuncts once, a disjunction keeps per parent only the disjuncts
   whose parent-only conjuncts hold, and a chain of ternaries whose
   guards are parent-only picks its branch once.  Constraints are pure,
   so evaluating a part once instead of [d] times changes no result. *)
let compile_extension ~fresh ~d ~parent ~candidate e =
  let reads_fresh e = List.mem fresh (Expr.free_columns e) in
  let per_parent f =
    let last = ref (-1) and v = ref None in
    fun k ->
      let p = k / d in
      match !v with
      | Some x when p = !last -> x
      | _ ->
          let x = f k in
          last := p;
          v := Some x;
          x
  in
  let rec flatten split acc e =
    match split e with
    | Some (a, b) -> flatten split (flatten split acc b) a
    | None -> e :: acc
  in
  let conjuncts =
    flatten (function Expr.And (a, b) -> Some (a, b) | _ -> None) []
  in
  let disjuncts =
    flatten (function Expr.Or (a, b) -> Some (a, b) | _ -> None) []
  in
  (* the parent-only conjuncts of [e], compiled per parent, and the rest *)
  let split e =
    let ps, cs = List.partition (fun c -> not (reads_fresh c)) (conjuncts e) in
    (parent (Expr.conj ps), cs)
  in
  let rec go (e : Expr.t) =
    match e with
    | _ when not (reads_fresh e) -> per_parent (parent e)
    | Expr.And _ ->
        let p, cs = split e in
        let p = per_parent p and cs = List.map go cs in
        fun k -> p k && List.for_all (fun c -> c k) cs
    | Expr.Or _ ->
        let ds =
          List.map
            (fun e ->
              let p, cs = split e in
              (p, List.map go cs))
            (disjuncts e)
        in
        let live =
          per_parent (fun k ->
              List.filter_map
                (fun (p, cs) -> if p k then Some cs else None)
                ds)
        in
        fun k -> List.exists (List.for_all (fun c -> c k)) (live k)
    | Expr.Ternary (g, _, _) when not (reads_fresh g) ->
        let rec arms acc = function
          | Expr.Ternary (g, a, b) when not (reads_fresh g) ->
              arms ((parent g, go a) :: acc) b
          | last -> (List.rev acc, go last)
        in
        let arms, otherwise = arms [] e in
        let pick =
          per_parent (fun k ->
              match List.find_opt (fun (g, _) -> g k) arms with
              | Some (_, a) -> a
              | None -> otherwise)
        in
        fun k -> (pick k) k
    | Expr.Ternary (g, a, b) ->
        let g = go g and a = go a and b = go b in
        fun k -> if g k then a k else b k
    | Expr.Not a ->
        let a = go a in
        fun k -> not (a k)
    | atom -> candidate atom
  in
  go e

(* Vectorized row extension: the same candidate enumeration as the
   reference [step] — parent-major, domain order, newly-applicable
   constraints applied in the same order — but over columnar code
   buffers with once-per-chunk compiled predicates and selection-vector
   compaction instead of a boxed [Value] array per candidate.  The
   parts of a constraint that do not read the new column run once per
   parent row ({!compile_extension}), and candidates are never
   materialized beyond the columns those other parts read: survivors are
   gathered straight from the parent columns.

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
  let order = ordered_columns s in
  let evaluations = ref 0 and candidates = ref 0 in
  let per_column = ref [] in
  let pruning = ref [] in
  (* plan-observatory accounting: one "extend" op per column, recorded
     as a single solver.generate plan after the fold (spawning domain
     only; workers never touch obs) *)
  let t_gen = Obs.Clock.now_ns () in
  let plan_ops = ref [] in
  let plan_cost = ref 0. in
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
  (* state: one (dict, codes) pair per bound column, [nrows] valid rows *)
  let step (schema, cols, nrows) col =
    Obs.Trace.with_span ~cat:"solver"
      ~args:[ "column", Obs.Json.Str col.cname ]
      "solver.extend"
    @@ fun () ->
    let t_step = Obs.Clock.now_ns () in
    let candidates_before = !candidates in
    Hashtbl.add bound col.cname ();
    let schema' = Schema.append schema [ col.cname ] in
    let ready, waiting =
      List.partition
        (fun (free, _) -> List.for_all (Hashtbl.mem bound) free)
        !pending
    in
    pending := waiting;
    let checks = List.map snd ready in
    let arity = Array.length cols in
    let dom = Array.of_list col.domain in
    let d = Array.length dom in
    let ndict = Dict.create () in
    let dom_codes = Array.map (Dict.intern ndict) dom in
    let dicts = Array.append (Array.map fst cols) [| ndict |] in
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
      let parent e =
        let f = compile (fun j -> snd cols.(j)) e in
        fun k -> f parents.(k / d)
      in
      let sel = ref (Array.init ncand Fun.id) in
      let m = ref ncand in
      let evals = ref 0 in
      List.iter
        (fun e ->
          let check =
            compile_extension ~fresh:col.cname ~d ~parent
              ~candidate:(compile cand_col) e
          in
          evals := !evals + !m;
          let cur = !sel in
          let keep = Array.make (max 1 !m) 0 in
          let k = ref 0 in
          for i = 0 to !m - 1 do
            let c = cur.(i) in
            if check c then begin
              keep.(!k) <- c;
              incr k
            end
          done;
          sel := keep;
          m := !k)
        checks;
      let m = !m and sel = !sel in
      let out =
        Array.init (arity + 1) (fun j ->
            if j < arity then
              let src = snd cols.(j) in
              Array.init m (fun i -> src.(parents.(sel.(i) / d)))
            else Array.init m (fun i -> dom_codes.(sel.(i) mod d)))
      in
      out, m, ncand, !evals
    in
    let parts =
      Par.Pool.map_chunks ~min_chunk:64 run_chunk (Array.init nrows Fun.id)
    in
    let kept = Array.fold_left (fun acc (_, m, _, _) -> acc + m) 0 parts in
    let out_cols =
      Array.init (arity + 1) (fun j ->
          let dst = Array.make (max 1 kept) 0 in
          let off = ref 0 in
          Array.iter
            (fun (o, m, _, _) ->
              Array.blit o.(j) 0 dst !off m;
              off := !off + m)
            parts;
          dst)
    in
    Array.iter
      (fun (_, _, c, e) ->
        candidates := !candidates + c;
        evaluations := !evaluations + e)
      parts;
    per_column := (col.cname, kept) :: !per_column;
    let considered = !candidates - candidates_before in
    Obs.Flightrec.record ~tag:Obs.Flightrec.tag_solver_extend ~a:considered
      ~b:kept ();
    pruning := { column = col.cname; considered; kept } :: !pruning;
    Obs.Metrics.add
      (obs_counter (Printf.sprintf "pruned.%s.%s" s.sname col.cname))
      (considered - kept);
    if Obs.Config.on () then begin
      let considered_f = float_of_int considered in
      (* uninformed textbook half per newly-ready constraint — the same
         default the planner uses for registered functions; the misest
         column of sys.plans shows how far off that is per column *)
      let est_rows =
        considered_f *. (0.5 ** float_of_int (List.length checks))
      in
      plan_cost := !plan_cost +. considered_f;
      plan_ops :=
        {
          Obs.Planlog.op =
            Printf.sprintf "extend %s (domain=%d, checks=%d)" col.cname d
              (List.length checks);
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
      kept )
  in
  let schema, cols, nrows =
    List.fold_left step (Schema.of_list [], [||], 1) order
  in
  Obs.Metrics.add (obs_counter "candidates") !candidates;
  Obs.Metrics.add (obs_counter "evaluations") !evaluations;
  Obs.Metrics.add (obs_counter "rows_generated") nrows;
  Obs.Flightrec.record ~tag:Obs.Flightrec.tag_solver_gen ~a:nrows
    ~b:(List.length order) ();
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
     lists: depth-first over the domains.  For the parallel path the
     outermost column's values are split across the pool; each chunk
     enumerates its sub-product with private counters and a private row
     buffer, and chunk results concatenate in value order — the exact
     depth-first order of the sequential enumeration. *)
  let domains = Array.of_list (List.map (fun c -> Array.of_list c.domain) order) in
  let n = Array.length domains in
  let enum_chunk first_values =
    let evaluations = ref 0 and candidates = ref 0 in
    let kept = ref [] in
    let row = Array.make (max n 1) Value.Null in
    let rec enum i =
      if i = n then begin
        incr candidates;
        incr evaluations;
        let r = Array.sub row 0 n in
        if conjunction r then kept := r :: !kept
      end
      else
        let values = if i = 0 then first_values else domains.(i) in
        Array.iter
          (fun v ->
            row.(i) <- v;
            enum (i + 1))
          values
    in
    enum 0;
    List.rev !kept, !candidates, !evaluations
  in
  (* no columns: the product of no domains is the one empty row *)
  let parts =
    if n = 0 then [| enum_chunk [||] |]
    else Par.Pool.map_chunks ~min_chunk:1 enum_chunk domains.(0)
  in
  let rows =
    List.concat (Array.to_list (Array.map (fun (r, _, _) -> r) parts))
  in
  let candidates =
    ref (Array.fold_left (fun acc (_, c, _) -> acc + c) 0 parts)
  in
  let evaluations =
    ref (Array.fold_left (fun acc (_, _, e) -> acc + e) 0 parts)
  in
  Obs.Metrics.add
    (obs_counter (Printf.sprintf "pruned.%s.<full product>" s.sname))
    (!candidates - List.length rows);
  Obs.Flightrec.record ~tag:Obs.Flightrec.tag_solver_gen
    ~a:(List.length rows) ~b:n ();
  ( Table.of_rows ~name:s.sname schema rows,
    {
      candidates = !candidates;
      evaluations = !evaluations;
      per_column = [ ("<full product>", List.length rows) ];
      pruning =
        [ { column = "<full product>"; considered = !candidates;
            kept = List.length rows } ];
    } )
