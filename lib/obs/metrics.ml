(* Counters, gauges and histograms grouped into named registries — one
   registry per subsystem (relalg, solver, checker, mcheck, sim), so each
   layer owns its namespace and a report can render them side by side.

   Handles are cheap mutable records; creation is memoized per
   (registry, name).  Mutation entry points check {!Config.on} so a
   disabled build pays one branch per call site. *)

type counter = { c_name : string; mutable count : int }

type gauge = {
  g_name : string;
  mutable value : float;
  mutable g_max : float;
  mutable samples : int;
}

type histogram = {
  h_name : string;
  bounds : float array;  (** strictly increasing upper bucket bounds *)
  counts : int array;  (** length = length bounds + 1 (overflow bucket) *)
  mutable sum : float;
  mutable n : int;
  mutable h_min : float;
  mutable h_max : float;
}

type registry = {
  r_name : string;
  counters : (string, counter) Hashtbl.t;
  gauges : (string, gauge) Hashtbl.t;
  histograms : (string, histogram) Hashtbl.t;
}

let registries : (string, registry) Hashtbl.t = Hashtbl.create 8
let registry_order : string list ref = ref []

(* One lock covers handle creation and all enabled-mode mutation, making
   every entry point safe to call from any domain.  The parallel kernels
   deliberately keep their workers metric-free (per-chunk deltas are
   merged by the spawning domain at pool join), so this lock is
   uncontended in practice; it exists so stray instrumentation in shared
   code can never corrupt a registry. *)
let lock = Mutex.create ()

let locked f =
  Mutex.lock lock;
  Fun.protect ~finally:(fun () -> Mutex.unlock lock) f

let registry name =
  locked @@ fun () ->
  match Hashtbl.find_opt registries name with
  | Some r -> r
  | None ->
      let r =
        {
          r_name = name;
          counters = Hashtbl.create 16;
          gauges = Hashtbl.create 8;
          histograms = Hashtbl.create 8;
        }
      in
      Hashtbl.add registries name r;
      registry_order := name :: !registry_order;
      r

let all_registries () =
  locked (fun () -> List.rev_map (Hashtbl.find registries) !registry_order)

let memo tbl name make =
  locked @@ fun () ->
  match Hashtbl.find_opt tbl name with
  | Some v -> v
  | None ->
      let v = make () in
      Hashtbl.add tbl name v;
      v

(* ------------------------------ counters ------------------------------ *)

let counter reg name =
  memo reg.counters name (fun () -> { c_name = name; count = 0 })

let incr c = if Config.on () then locked (fun () -> c.count <- c.count + 1)
let add c n = if Config.on () then locked (fun () -> c.count <- c.count + n)
let count c = c.count

let aggregate name =
  List.fold_left
    (fun acc r ->
      match Hashtbl.find_opt r.counters name with
      | Some c -> acc + c.count
      | None -> acc)
    0 (all_registries ())

(* ------------------------------- gauges ------------------------------- *)

let gauge reg name =
  memo reg.gauges name (fun () ->
      { g_name = name; value = 0.; g_max = neg_infinity; samples = 0 })

let set g v =
  if Config.on () then
    locked (fun () ->
        g.value <- v;
        if v > g.g_max then g.g_max <- v;
        g.samples <- g.samples + 1)

let gauge_max g = if g.samples = 0 then 0. else g.g_max

(* ----------------------------- histograms ----------------------------- *)

let exponential_bounds ?(start = 1.) ?(factor = 2.) count =
  Array.init count (fun i -> start *. (factor ** float_of_int i))

let default_bounds = exponential_bounds ~start:1. ~factor:4. 10

(* Lookup-or-create: a second registration under the same name returns
   the existing histogram untouched — bounds (including malformed ones)
   are only validated when the handle is actually created, so multiple
   runs in one process can re-request their instruments freely. *)
let histogram ?(bounds = default_bounds) reg name =
  memo reg.histograms name (fun () ->
      if bounds = [||] then invalid_arg ("histogram " ^ name ^ ": no bounds");
      Array.iteri
        (fun i b ->
          if i > 0 && b <= bounds.(i - 1) then
            invalid_arg ("histogram " ^ name ^ ": bounds must be increasing"))
        bounds;
      {
        h_name = name;
        bounds;
        counts = Array.make (Array.length bounds + 1) 0;
        sum = 0.;
        n = 0;
        h_min = infinity;
        h_max = neg_infinity;
      })

let bucket_index bounds v =
  let n = Array.length bounds in
  let rec go i = if i >= n then n else if v <= bounds.(i) then i else go (i + 1) in
  go 0

let observe h v =
  if Config.on () then
    locked (fun () ->
        let i = bucket_index h.bounds v in
        h.counts.(i) <- h.counts.(i) + 1;
        h.sum <- h.sum +. v;
        h.n <- h.n + 1;
        if v < h.h_min then h.h_min <- v;
        if v > h.h_max then h.h_max <- v)

let observations h = h.n
let mean h = if h.n = 0 then 0. else h.sum /. float_of_int h.n

let quantile h q =
  if h.n = 0 then 0.
  else begin
    let rank = Float.max 1. (Float.round (q *. float_of_int h.n)) in
    let rec go i acc =
      if i >= Array.length h.counts then h.h_max
      else
        let acc = acc + h.counts.(i) in
        if float_of_int acc >= rank then
          if i < Array.length h.bounds then h.bounds.(i) else h.h_max
        else go (i + 1) acc
    in
    go 0 0
  end

(* ------------------------------- reset -------------------------------- *)

let reset () =
  locked @@ fun () ->
  Hashtbl.iter
    (fun _ r ->
      Hashtbl.iter (fun _ c -> c.count <- 0) r.counters;
      Hashtbl.iter
        (fun _ g ->
          g.value <- 0.;
          g.g_max <- neg_infinity;
          g.samples <- 0)
        r.gauges;
      Hashtbl.iter
        (fun _ h ->
          Array.fill h.counts 0 (Array.length h.counts) 0;
          h.sum <- 0.;
          h.n <- 0;
          h.h_min <- infinity;
          h.h_max <- neg_infinity)
        r.histograms)
    registries

(* ------------------------------- export ------------------------------- *)

let sorted_values tbl name_of =
  List.sort
    (fun a b -> compare (name_of a) (name_of b))
    (Hashtbl.fold (fun _ v acc -> v :: acc) tbl [])

(* A registry is exported once something was recorded in it since the last
   {!reset}: reset zeroes registries in place (subsystems cache their
   handles), so an idle registry is all zeros rather than absent. *)
let recorded r =
  Hashtbl.fold (fun _ c acc -> acc || c.count <> 0) r.counters false
  || Hashtbl.fold (fun _ g acc -> acc || g.samples > 0) r.gauges false
  || Hashtbl.fold (fun _ h acc -> acc || h.n > 0) r.histograms false

(* The nonzero buckets in bound order: [{"le": bound; "n"}] per bounded
   bucket, [{"gt": last bound; "n"}] for the overflow bucket. *)
let buckets_json h =
  let last = Array.length h.bounds - 1 in
  Json.List
    (List.filter_map
       (fun i ->
         let c = h.counts.(i) in
         if c = 0 then None
         else
           let bound =
             if i <= last then ("le", Json.Float h.bounds.(i))
             else ("gt", Json.Float h.bounds.(last))
           in
           Some (Json.Obj [ bound; ("n", Json.Int c) ]))
       (List.init (Array.length h.counts) Fun.id))

(* The machine-readable snapshot embedded in run manifests.  Registries
   and instruments are rendered in sorted order so two identical runs
   produce byte-identical JSON. *)
let to_json () =
  let registry_json r =
    let counters = sorted_values r.counters (fun c -> c.c_name) in
    let gauges = sorted_values r.gauges (fun g -> g.g_name) in
    let histograms = sorted_values r.histograms (fun h -> h.h_name) in
    if not (recorded r) then None
    else
      let fields = [] in
      let fields =
        if histograms = [] then fields
        else
          ( "histograms",
            Json.Obj
              (List.map
                 (fun h ->
                   ( h.h_name,
                     Json.Obj
                       [
                         ("n", Json.Int h.n);
                         ("mean", Json.Float (mean h));
                         ("p50", Json.Float (quantile h 0.5));
                         ("p95", Json.Float (quantile h 0.95));
                         ("p99", Json.Float (quantile h 0.99));
                         ("max", Json.Float (if h.n = 0 then 0. else h.h_max));
                         ("buckets", buckets_json h);
                       ] ))
                 histograms) )
          :: fields
      in
      let fields =
        if gauges = [] then fields
        else
          ( "gauges",
            Json.Obj
              (List.map
                 (fun g ->
                   ( g.g_name,
                     Json.Obj
                       [
                         ("value", Json.Float g.value);
                         ("max", Json.Float (gauge_max g));
                         ("n", Json.Int g.samples);
                       ] ))
                 gauges) )
          :: fields
      in
      let fields =
        if counters = [] then fields
        else
          ( "counters",
            Json.Obj (List.map (fun c -> (c.c_name, Json.Int c.count)) counters)
          )
          :: fields
      in
      Some (r.r_name, Json.Obj fields)
  in
  let regs =
    List.sort
      (fun a b -> compare a.r_name b.r_name)
      (all_registries ())
  in
  Json.Obj (List.filter_map registry_json regs)
