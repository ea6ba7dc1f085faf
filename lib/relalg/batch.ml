(* Vectorized physical operators.  A [source] is a pull-based stream of
   batches of dictionary codes: every operator owns one set of output
   buffers, allocated once, so downstream compiled predicates bind to
   stable arrays and the inner loops are tight int loops with no per-row
   [Value] boxing.  Materialization is late: a filter gathers only the
   columns its consumer keeps, a filter over a materialized table gathers
   exact-size columns of the surviving rows, a drain copies a stream's
   one batch at its exact size, and an emptiness probe stops at the first
   surviving row.  All of that runs on one selection-vector loop and one
   gather loop.  Distinct and group read a table through the same
   selection vector and gather only each key's first occurrence; they
   and the join's build side index rows by *combined integer keys* — a
   dense array when the key domain (product of dictionary sizes) is
   small, open addressing with per-column code comparison otherwise —
   instead of the polymorphic [int array]-keyed hash tables of the
   row-at-a-time reference path in {!Ops}. *)

type source = {
  schema : Schema.t;
  dicts : Dict.t array;
  cols : int array array;
      (* stable per-operator buffers; row [i] of the current batch is
         [cols.(j).(i)] for every column [j] *)
  width : int;
      (* max rows a single batch may carry (a borrowed scan's
         cardinality, passed on by every streaming operator) — consumers
         size their gather buffers to this *)
  pull : unit -> int;  (* rows in the next batch; -1 when exhausted *)
}

let schema s = s.schema

(* Scan-copy accounting for sys.plan_ops: whole-column borrows vs the
   bytes the engine still has to materialize (filter gathers, drains). *)
let relalg_metrics = lazy (Obs.Metrics.registry "relalg")

let bytes_borrowed =
  lazy (Obs.Metrics.counter (Lazy.force relalg_metrics) "batch.bytes_borrowed")

let bytes_copied =
  lazy (Obs.Metrics.counter (Lazy.force relalg_metrics) "batch.bytes_copied")

let word_bytes = Sys.word_size / 8

(* ------------------------------ sources ------------------------------ *)

(* A table scan consumes entire stored columns with no selection vector,
   so there is nothing to re-batch: hand out the table's own code
   buffers (immutable by {!Table.codes}' contract) as one full-width
   batch instead of blitting fixed-size windows.  Downstream
   operators bind buffers once before the first pull either way. *)
let of_table t =
  let arity = Table.arity t in
  let n = Table.cardinality t in
  let cols = Array.init arity (Table.codes t) in
  let spent = ref false in
  let pull () =
    if !spent then -1
    else begin
      spent := true;
      Obs.Metrics.add (Lazy.force bytes_borrowed) (word_bytes * arity * n);
      n
    end
  in
  {
    schema = Table.schema t;
    dicts = Array.init arity (Table.dict t);
    cols;
    width = max 1 n;
    pull;
  }

(* ------------------------ selection and gather ----------------------- *)

(* The selection-vector loop: the indices of the rows in [0, n) that pass
   [check], in order, written to the front of [sel]; it stops once [upto]
   rows have survived.  Returns how many were written. *)
let select_rows ?(upto = max_int) check sel n =
  let m = ref 0 and i = ref 0 in
  while !i < n && !m < upto do
    if check !i then begin
      Array.unsafe_set sel !m !i;
      incr m
    end;
    incr i
  done;
  !m

(* The gather loop: [dst.(k) <- src.(sel.(k))] for the first [m]
   selected rows. *)
let gather src sel m dst =
  for k = 0 to m - 1 do
    Array.unsafe_set dst k (Array.unsafe_get src (Array.unsafe_get sel k))
  done

(* Output schema and input column indices of the columns a consumer
   keeps ([None]: all of them, in order). *)
let kept_columns schema = function
  | None -> (schema, Array.init (Schema.arity schema) Fun.id)
  | Some cols ->
      ( Schema.project schema cols,
        Array.of_list (List.map (Schema.index schema) cols) )

(* --------------------------- streaming ops --------------------------- *)

let compile ?funcs pred src =
  Expr.compile_columns ?funcs src.schema
    ~dict:(fun j -> src.dicts.(j))
    ~codes:(fun j -> src.cols.(j))
    pred

let select ?funcs ?keep pred src =
  let check = compile ?funcs pred src in
  let schema, js = kept_columns src.schema keep in
  let out = Array.map (fun _ -> Array.make src.width 0) js in
  let sel = Array.make src.width 0 in
  let pull () =
    let n = src.pull () in
    if n < 0 then -1
    else begin
      (* selection vector first, then a gather of the kept columns only:
         the predicate may read columns nobody downstream wants *)
      let m = select_rows check sel n in
      Array.iteri (fun k j -> gather src.cols.(j) sel m out.(k)) js;
      Obs.Metrics.add (Lazy.force bytes_copied)
        (word_bytes * Array.length js * m);
      m
    end
  in
  {
    schema;
    dicts = Array.map (fun j -> src.dicts.(j)) js;
    cols = out;
    width = src.width;
    pull;
  }

(* The whole-table selection vector is scratch: one per domain, grown to
   the largest input seen, so a filter does not allocate a table-long
   array (a major-heap allocation past 256 words) on every call.  It
   stays at one word per row of the largest table filtered on that
   domain (about 9 KB for D) and is never shrunk.  The slot is emptied
   while the vector is in use, so a predicate that re-enters gets a
   fresh one. *)
let scratch_sel = Domain.DLS.new_key (fun () -> [||])

let with_sel n f =
  let sel = Domain.DLS.get scratch_sel in
  let sel = if Array.length sel >= n then sel else Array.make n 0 in
  Domain.DLS.set scratch_sel [||];
  let r = f sel in
  Domain.DLS.set scratch_sel sel;
  r

(* The selection of [where] over [t] (every row, in order, when there
   is no predicate): [f sel rows] runs on the first [limit] survivors,
   and its result comes back with the number of rows that passed. *)
let selecting ?funcs ?where ?(limit = max_int) t f =
  let n = Table.cardinality t in
  let check =
    Option.map
      (Expr.compile_columns ?funcs (Table.schema t) ~dict:(Table.dict t)
         ~codes:(Table.codes t))
      where
  in
  with_sel n @@ fun sel ->
  let m =
    match check with
    | Some check -> select_rows check sel n
    | None ->
        for i = 0 to n - 1 do
          Array.unsafe_set sel i i
        done;
        n
  in
  (f sel (min m limit), m)

(* Columns [js] of [t] at the first [rows] selected rows, gathered into
   arrays of exactly that size that share [t]'s dictionaries. *)
let gather_columns t js sel rows =
  Obs.Metrics.add (Lazy.force bytes_copied)
    (word_bytes * Array.length js * rows);
  Array.map
    (fun j ->
      let d = Array.make rows 0 in
      gather (Table.codes t j) sel rows d;
      (Table.dict t j, d))
    js

(* A filter whose input is already a table and whose output is drained:
   no stream, so the selection vector covers the whole table and the
   kept columns are gathered at exactly the size that is kept. *)
let select_table ?funcs ?where ?keep ?limit ~name t =
  let schema, js = kept_columns (Table.schema t) keep in
  selecting ?funcs ?where ?limit t @@ fun sel rows ->
  Table.of_columns ~name schema ~nrows:rows (gather_columns t js sel rows)

let exists ?funcs pred src =
  let check = compile ?funcs pred src in
  let sel = [| 0 |] in
  let rec loop () =
    let n = src.pull () in
    n >= 0 && (select_rows ~upto:1 check sel n > 0 || loop ())
  in
  loop ()

let project cols src =
  (* zero-copy: the projected source aliases the parent's buffers *)
  let js = List.map (Schema.index src.schema) cols in
  {
    schema = Schema.project src.schema cols;
    dicts = Array.of_list (List.map (fun j -> src.dicts.(j)) js);
    cols = Array.of_list (List.map (fun j -> src.cols.(j)) js);
    width = src.width;
    pull = src.pull;
  }

let tap f src =
  let pull () =
    let b = src.pull () in
    if b > 0 then f b;
    b
  in
  { src with pull }

let timed f src =
  let pull () =
    let t0 = Obs.Clock.now_ns () in
    let b = src.pull () in
    f (Obs.Clock.since t0) b;
    b
  in
  { src with pull }

let limit n src =
  let remaining = ref n in
  let pull () =
    if !remaining <= 0 then -1
    else
      let b = src.pull () in
      if b < 0 then -1
      else begin
        let k = min b !remaining in
        remaining := !remaining - k;
        k
      end
  in
  { src with pull }

(* ------------------------------ draining ----------------------------- *)

(* Every source hands out at most one batch: a scan borrows its table as
   one full-width batch and every streaming operator passes batches
   through one for one.  So a drain is one exact-size copy of that
   batch (nothing for an empty stream); a second batch would break the
   invariant the exact size rests on, and raises. *)
let drain src =
  let b = src.pull () in
  let n = max b 0 in
  let data = Array.map (fun col -> Array.sub col 0 n) src.cols in
  if b >= 0 && src.pull () >= 0 then
    invalid_arg "Batch.drain: a source handed out a second batch";
  Obs.Metrics.add (Lazy.force bytes_copied) (word_bytes * Array.length data * n);
  (data, n)

let to_table ~name src =
  let data, n = drain src in
  Table.of_columns ~name src.schema ~nrows:n
    (Array.mapi (fun j d -> (src.dicts.(j), d)) data)

let count src =
  let n = ref 0 in
  let rec loop () =
    let b = src.pull () in
    if b >= 0 then begin
      n := !n + b;
      loop ()
    end
  in
  loop ();
  !n

(* ----------------------------- key indexes --------------------------- *)

(* Dense combined keys are only worth a direct-address table while the
   key domain stays small; 1<<16 caps the heads array at 512 KB. *)
let dense_limit = 1 lsl 16

(* Product of the key dictionaries' sizes, or -1 when it exceeds
   [dense_limit] (use the generic open-addressing index instead). *)
let dense_domain dicts =
  Array.fold_left
    (fun acc d ->
      if acc < 0 then -1
      else
        let s = max 1 (Dict.size d) in
        let p = acc * s in
        if p > dense_limit then -1 else p)
    1 dicts

let mix k =
  let h = k * 0x2545F4914F6CDD1 in
  (h lxor (h lsr 29)) land max_int

let rec pow2_at_least n = if n <= 16 then 16 else 2 * pow2_at_least ((n + 1) / 2)

(* ------------------------- distinct / group by ------------------------ *)

(* The one dedup kernel.  [sel.(0 .. m-1)] are the candidate rows of [t]
   in order and [js] the key columns, read in place.  A key met for the
   first time becomes group [g]: its row is written back to [sel.(g)]
   (never past the candidate being read, so the selection compacts in
   place) and its count, when [counts] is given, starts at 1.  Returns
   the number of groups; [sel.(0 .. g-1)] then holds each key's first
   occurrence, in order.  The index is a direct-address array over the
   combined codes when the key domain is at most [dense_limit], else an
   open-addressing table sized for [m] distinct keys (load at most 1/2),
   so it never grows. *)
let dedup_rows ?counts t js sel m =
  let k = Array.length js in
  let cols = Array.map (Table.codes t) js in
  let g = ref 0 in
  let add i =
    Array.unsafe_set sel !g i;
    (match counts with Some c -> Array.unsafe_set c !g 1 | None -> ());
    incr g
  in
  let bump id =
    match counts with
    | Some c -> Array.unsafe_set c id (Array.unsafe_get c id + 1)
    | None -> ()
  in
  let dense = dense_domain (Array.map (Table.dict t) js) in
  if dense >= 0 then begin
    let weights = Array.map (fun j -> max 1 (Dict.size (Table.dict t j))) js in
    let group_of = Array.make dense (-1) in
    for s = 0 to m - 1 do
      let i = Array.unsafe_get sel s in
      let key = ref 0 in
      for j = 0 to k - 1 do
        key :=
          (!key * Array.unsafe_get weights j)
          + Array.unsafe_get (Array.unsafe_get cols j) i
      done;
      let id = Array.unsafe_get group_of !key in
      if id >= 0 then bump id
      else begin
        Array.unsafe_set group_of !key !g;
        add i
      end
    done
  end
  else begin
    let mask = pow2_at_least (2 * m) - 1 in
    let slots = Array.make (mask + 1) (-1) in
    let same a b =
      let j = ref 0 in
      while
        !j < k
        &&
        let c = Array.unsafe_get cols !j in
        Array.unsafe_get c a = Array.unsafe_get c b
      do
        incr j
      done;
      !j = k
    in
    for s = 0 to m - 1 do
      let i = Array.unsafe_get sel s in
      let h = ref 0 in
      for j = 0 to k - 1 do
        h := (!h * 1000003) + Array.unsafe_get (Array.unsafe_get cols j) i
      done;
      let p = ref (mix !h land mask) and probing = ref true in
      while !probing do
        let id = Array.unsafe_get slots !p in
        if id < 0 then begin
          Array.unsafe_set slots !p !g;
          add i;
          probing := false
        end
        else if same i (Array.unsafe_get sel id) then begin
          bump id;
          probing := false
        end
        else p := (!p + 1) land mask
      done
    done
  end;
  !g

(* First-occurrence dedup of the kept columns, like {!Table.distinct}. *)
let distinct_table ?funcs ?where ?keep ?limit ~name t =
  let schema, js = kept_columns (Table.schema t) keep in
  selecting ?funcs ?where ?limit t @@ fun sel m ->
  let g = dedup_rows t js sel m in
  Table.of_columns ~name schema ~nrows:g (gather_columns t js sel g)

(* First-occurrence group count, like {!Ops.group_count}: the [by]
   columns (resolved through [keep], as a projection below the group
   would) then their counts. *)
let group_table ?funcs ?where ?keep ?limit ~by t =
  let kept, ks = kept_columns (Table.schema t) keep in
  let js = Array.of_list (List.map (fun c -> ks.(Schema.index kept c)) by) in
  selecting ?funcs ?where ?limit t @@ fun sel m ->
  let counts = Array.make m 0 in
  let g = dedup_rows ~counts t js sel m in
  let count_dict = Dict.create () in
  let count_codes =
    Array.init g (fun id -> Dict.intern count_dict (Value.Int counts.(id)))
  in
  Table.of_columns ~name:"<group>"
    (Schema.of_list (by @ [ "count" ]))
    ~nrows:g
    (Array.append (gather_columns t js sel g) [| (count_dict, count_codes) |])

(* ----------------------------- sort / top-k --------------------------- *)

let sort_comparator keys schema dicts data n =
  let cols =
    List.map
      (fun (c, dir) ->
        let j = Schema.index schema c in
        let d = dicts.(j) and cs = data.(j) in
        (Array.init n (fun i -> Dict.value d cs.(i)), dir))
      keys
  in
  let rec cmp cols a b =
    match cols with
    | [] -> 0
    | (vals, dir) :: rest ->
        let r = Value.order vals.(a) vals.(b) in
        let r = match dir with `Asc -> r | `Desc -> -r in
        if r <> 0 then r else cmp rest a b
  in
  cmp cols

let gather_block ~name schema dicts data idx m =
  let arity = Array.length data in
  let cols =
    Array.init arity (fun j ->
        let d = Array.make m 0 in
        gather data.(j) idx m d;
        (dicts.(j), d))
  in
  Table.of_columns ~name schema ~nrows:m cols

let sort_table ~name keys src =
  let data, n = drain src in
  let cmp = sort_comparator keys src.schema src.dicts data n in
  let idx =
    Array.of_list (List.stable_sort cmp (List.init n Fun.id))
  in
  gather_block ~name src.schema src.dicts data idx n

(* Bounded top-k: the first [k] rows of the stable sort, computed with a
   sorted insertion buffer of size [k] instead of sorting (or even fully
   gathering) all [n] rows.  The comparator is made total by the row
   index, so ties resolve to input order exactly like the stable sort. *)
let topk_limit = 256

let topk_table ~name k keys src =
  let data, n = drain src in
  if k >= n || k > topk_limit then begin
    let cmp = sort_comparator keys src.schema src.dicts data n in
    let idx = Array.of_list (List.stable_sort cmp (List.init n Fun.id)) in
    let m = min k n in
    gather_block ~name src.schema src.dicts data idx m
  end
  else begin
    let cmp0 = sort_comparator keys src.schema src.dicts data n in
    let cmp a b =
      let r = cmp0 a b in
      if r <> 0 then r else compare a b
    in
    let keep = Array.make (max 1 k) 0 in
    let m = ref 0 in
    (* insertion point: first slot whose row orders after [i] *)
    let insert_at i =
      let lo = ref 0 and hi = ref !m in
      while !lo < !hi do
        let mid = (!lo + !hi) / 2 in
        if cmp i keep.(mid) < 0 then hi := mid else lo := mid + 1
      done;
      !lo
    in
    for i = 0 to n - 1 do
      if !m < k then begin
        let at = insert_at i in
        Array.blit keep at keep (at + 1) (!m - at);
        keep.(at) <- i;
        incr m
      end
      else if k > 0 && cmp i keep.(k - 1) < 0 then begin
        let at = insert_at i in
        Array.blit keep at keep (at + 1) (k - 1 - at);
        keep.(at) <- i
      end
    done;
    gather_block ~name src.schema src.dicts data keep !m
  end

(* ------------------------------- join -------------------------------- *)

(* Hash equi-join on dictionary codes with explicit build-side choice.
   The output is bit-identical to {!Ops.equi_join} — all [ta] columns
   then the non-key [tb] columns, rows in [ta]-major order with matches
   in [tb] row order — whichever side carries the index: building on the
   probe side's left collects pairs probe-major and a stable counting
   sort by [ia] restores the reference order. *)
let join_tables ?build_left ~on ta tb =
  let sa = Table.schema ta and sb = Table.schema tb in
  let a_keys = List.map (fun (a, _) -> Schema.index sa a) on in
  let b_keys = List.map (fun (_, b) -> Schema.index sb b) on in
  let b_key_cols = List.map snd on in
  let kept_b =
    List.filter (fun c -> not (List.mem c b_key_cols)) (Schema.columns sb)
  in
  List.iter
    (fun c -> if Schema.mem sa c then raise (Ops.Schema_clash c))
    kept_b;
  let na = Table.cardinality ta and nb = Table.cardinality tb in
  let build_left =
    match build_left with Some b -> b | None -> na < nb
  in
  (* [bt] owns the index; [pt] streams through it. *)
  let bt, pt, b_keyix, p_keyix =
    if build_left then (ta, tb, a_keys, b_keys) else (tb, ta, b_keys, a_keys)
  in
  let nbuild = Table.cardinality bt and nprobe = Table.cardinality pt in
  let nkeys = List.length on in
  let bcols = Array.of_list (List.map (Table.codes bt) b_keyix) in
  let bdicts = Array.of_list (List.map (Table.dict bt) b_keyix) in
  let pcols = Array.of_list (List.map (Table.codes pt) p_keyix) in
  let trans =
    Array.of_list
      (List.map2
         (fun jp jb ->
           let dp = Table.dict pt jp and db = Table.dict bt jb in
           if dp == db then None else Some (Dict.translate ~from:dp ~into:db))
         p_keyix b_keyix)
  in
  (* translated probe key, written into [k]; false = no possible match *)
  let key_into k ip =
    let ok = ref true in
    for j = 0 to nkeys - 1 do
      let c = pcols.(j).(ip) in
      let c' = match trans.(j) with None -> c | Some map -> map.(c) in
      if c' < 0 then ok := false else k.(j) <- c'
    done;
    !ok
  in
  let next = Array.make (max 1 nbuild) (-1) in
  let dense = dense_domain bdicts in
  let scratch = Array.make (max 1 nkeys) 0 in
  (* [find]: head of the chain for the translated key in [scratch] *)
  let find =
    if dense >= 0 then begin
      let heads = Array.make dense (-1) in
      let weights = Array.map (fun d -> max 1 (Dict.size d)) bdicts in
      let key cols i =
        let k = ref 0 in
        for j = 0 to nkeys - 1 do
          k := (!k * Array.unsafe_get weights j) + cols j i
        done;
        !k
      in
      (* insert high-to-low so every chain lists build rows ascending *)
      for ib = nbuild - 1 downto 0 do
        let k = key (fun j i -> bcols.(j).(i)) ib in
        next.(ib) <- heads.(k);
        heads.(k) <- ib
      done;
      fun () -> heads.(key (fun j _ -> scratch.(j)) 0)
    end
    else begin
      let cap = pow2_at_least (4 * max 1 nbuild) in
      let mask = cap - 1 in
      let keys = Array.make cap (-1) in
      (* first build row of the slot's chain; keys compare per column *)
      let heads = Array.make cap (-1) in
      let hash cols i =
        let h = ref 0 in
        for j = 0 to nkeys - 1 do
          h := (!h * 1000003) + cols j i
        done;
        mix !h land mask
      in
      let same cols i ib =
        let ok = ref true in
        for j = 0 to nkeys - 1 do
          if cols j i <> bcols.(j).(ib) then ok := false
        done;
        !ok
      in
      let slot cols i =
        let rec probe s =
          if keys.(s) < 0 || same cols i keys.(s) then s
          else probe ((s + 1) land mask)
        in
        probe (hash cols i)
      in
      for ib = nbuild - 1 downto 0 do
        let s = slot (fun j i -> bcols.(j).(i)) ib in
        if keys.(s) < 0 then keys.(s) <- ib;
        next.(ib) <- heads.(s);
        heads.(s) <- ib
      done;
      fun () ->
        let s = slot (fun j _ -> scratch.(j)) 0 in
        if keys.(s) < 0 then -1 else heads.(s)
    end
  in
  (* probe in order, pushing matches into growable pair buffers *)
  let cap = ref 64 in
  let ip_arr = ref (Array.make !cap 0) and ib_arr = ref (Array.make !cap 0) in
  let m = ref 0 in
  let push ip ib =
    if !m = !cap then begin
      cap := 2 * !cap;
      let grow a =
        let a' = Array.make !cap 0 in
        Array.blit a 0 a' 0 !m;
        a'
      in
      ip_arr := grow !ip_arr;
      ib_arr := grow !ib_arr
    end;
    !ip_arr.(!m) <- ip;
    !ib_arr.(!m) <- ib;
    incr m
  in
  for ip = 0 to nprobe - 1 do
    if key_into scratch ip then begin
      let b = ref (find ()) in
      while !b >= 0 do
        push ip !b;
        b := next.(!b)
      done
    end
  done;
  let m = !m in
  let ias, ibs =
    if not build_left then (!ip_arr, !ib_arr)
    else begin
      (* pairs are (probe=ib)-major; stable counting sort by the build
         row [ia] restores ta-major order with tb matches ascending *)
      let counts = Array.make (na + 1) 0 in
      let bsrc = !ib_arr in
      for k = 0 to m - 1 do
        counts.(bsrc.(k) + 1) <- counts.(bsrc.(k) + 1) + 1
      done;
      for i = 1 to na do
        counts.(i) <- counts.(i) + counts.(i - 1)
      done;
      let ias = Array.make (max 1 m) 0 and ibs = Array.make (max 1 m) 0 in
      let psrc = !ip_arr in
      for k = 0 to m - 1 do
        let ia = bsrc.(k) in
        let at = counts.(ia) in
        counts.(ia) <- at + 1;
        ias.(at) <- ia;
        ibs.(at) <- psrc.(k)
      done;
      (ias, ibs)
    end
  in
  (* a semijoin-shaped result (every ta row matched exactly once, in
     order) needs no gather at all: the output's ta columns are ta's own
     immutable code arrays, shared zero-copy like {!Table.project} *)
  let identity idxs n =
    m = n
    &&
    let ok = ref true in
    for k = 0 to m - 1 do
      if Array.unsafe_get idxs k <> k then ok := false
    done;
    !ok
  in
  let col_from t idxs id j =
    let src = Table.codes t j in
    if id then (Table.dict t j, src)
    else begin
      let data = Array.make m 0 in
      gather src idxs m data;
      (Table.dict t j, data)
    end
  in
  let ia_id = identity ias na in
  let ib_id = identity ibs (Table.cardinality tb) in
  Table.of_columns
    ~name:(Table.name ta ^ "|x|" ^ Table.name tb)
    (Schema.append sa kept_b) ~nrows:m
    (Array.append
       (Array.init (Schema.arity sa) (col_from ta ias ia_id))
       (Array.of_list
          (List.map
             (fun jb -> col_from tb ibs ib_id jb)
             (List.map (Schema.index sb) kept_b))))
