(* The exploration flight recorder: per-domain fixed-capacity ring
   buffers of packed integer event records.

   Spans and counters summarize a run; the recorder keeps the *dynamics*
   — which rule fired on which state, when a steal happened, when dedup
   saturated — so that a violation, deadlock or signal can be explained
   from the last milliseconds of evidence.  It is on by default, so the
   write path is engineered to vanish into the noise of a model-checking
   step: one enabled-check branch, at most one monotonic clock read,
   five int stores into a pre-allocated ring, and no allocation at all
   (the ring's last stamp is an immediate int, and every payload word
   is a required argument, so no option box is built per call).

   The clock read is most of a record's cost, so the hot tags mostly
   skip it.  [fire] and [dedup] records never read the clock: they
   happen inside the expansion of the state their ring's latest
   [expand] names, so they reuse the ring's last stamp with a zero
   delta, and their drained stamp is their [expand]'s.  One [expand] in
   [expand_stamp_every] (16) reads the clock and the others reuse the
   last stamp too, so a ring's stamps advance in steps of at most 16
   expansions.  A ring's first record and every rarer tag (steal,
   compact, solver, violation, deadlock, stop) always read it.

   Recording must be legal from inside parallel workers (expand, dedup
   and steal events originate there), so the store is sharded exactly
   like {!Coverage}: each domain writes a private ring obtained through
   Domain.DLS, and {!drain} merges the rings by timestamp from a
   quiescent caller.  Like coverage bitmaps, only order-free projections
   of the stream (per-tag counts, per-rule firing counts) are part of
   the determinism contract — inter-domain interleaving and steal events
   are scheduling-dependent by nature.

   A record is [stride] consecutive ints:
     word 0  tag (see {!tag_name})
     word 1  timestamp delta in ns from the previous record of this ring
             (monotonic clock, so reconstruction walks backwards from
             the ring's last absolute stamp; 0 for a record that
             reuses the previous stamp)
     word 2..4  payload a, b, c (tag-specific; unused slots are 0)
   A full ring overwrites its oldest record — the recorder keeps the
   most recent window by construction, and {!dropped} reports how much
   history fell off the back. *)

(* ------------------------------- tags --------------------------------- *)

let tag_expand = 0 (* a=depth, b=frontier / in-flight size *)
let tag_fire = 1 (* a=coverage table id, b=row, c=depth *)
let tag_dedup = 2 (* a=depth, b=1 if hit else 0 *)
let tag_steal = 3 (* a=thief participant, b=victim participant *)
let tag_compact = 4 (* a=shard, b=new capacity (visited-set growth) *)
let tag_solver_gen = 5 (* a=rows generated, b=columns bound *)
let tag_solver_extend = 6 (* a=candidates considered, b=rows kept *)
let tag_violation = 7 (* a=violation kind code, b=max depth *)
let tag_deadlock = 8 (* a=max depth *)
let tag_stop = 9 (* a=stop reason code, b=states explored *)

let tag_name = function
  | 0 -> "expand"
  | 1 -> "fire"
  | 2 -> "dedup"
  | 3 -> "steal"
  | 4 -> "compact"
  | 5 -> "solver_gen"
  | 6 -> "solver_extend"
  | 7 -> "violation"
  | 8 -> "deadlock"
  | 9 -> "stop"
  | n -> Printf.sprintf "tag%d" n

(* stop reason codes (payload a of [tag_stop]) *)
let stop_complete = 0
let stop_budget = 1
let stop_violation = 2

let stop_name = function
  | 0 -> "complete"
  | 1 -> "budget"
  | 2 -> "violation"
  | n -> Printf.sprintf "stop%d" n

(* ------------------------------- rings -------------------------------- *)

let stride = 5
let default_capacity = 4096

(* On by default (the whole point is that the evidence is already there
   when something goes wrong); ASURA_FLIGHTREC=off is the bench escape
   hatch for measuring the recorder's own overhead.  The initial state
   is read once.  Module initialisation must not raise, so a malformed
   value records nothing and is raised by the first reader ({!on},
   {!drain}, {!to_json}), while {!record} stays one load and branch. *)
let initial =
  match Settings.flightrec () with
  | b -> Ok b
  | exception (Settings.Invalid _ as e) -> Error e

let checked () = Result.iter_error raise initial
let enabled = ref (Result.value initial ~default:false)
let enable () = enabled := true
let disable () = enabled := false
let on () =
  checked ();
  !enabled

let with_disabled f =
  let prev = !enabled in
  enabled := false;
  Fun.protect ~finally:(fun () -> enabled := prev) f

type ring = {
  dom : int;  (* creation-order index, stable and small *)
  mutable buf : int array;  (* capacity * stride *)
  mutable cap : int;  (* capacity in records *)
  mutable head : int;  (* total records ever written to this ring *)
  mutable slot : int;  (* buffer index of the next record: head mod cap * stride *)
  mutable last_ns : int;  (* absolute stamp of the newest record *)
  mutable quiet : int;  (* expands since the last clock read *)
}

(* The lock covers the ring list and capacity; ring buffers themselves
   are domain-private and written lock-free. *)
let lock = Mutex.create ()

let locked f =
  Mutex.lock lock;
  Fun.protect ~finally:(fun () -> Mutex.unlock lock) f

let rings : ring list ref = ref []
let capacity = ref default_capacity

let ring_key =
  Domain.DLS.new_key (fun () ->
      locked (fun () ->
          let r =
            {
              dom = List.length !rings;
              buf = Array.make (!capacity * stride) 0;
              cap = !capacity;
              head = 0;
              slot = 0;
              last_ns = 0;
              quiet = 0;
            }
          in
          rings := r :: !rings;
          r))

let clear_ring r =
  r.head <- 0;
  r.slot <- 0;
  r.last_ns <- 0;
  r.quiet <- 0

let set_capacity n =
  let n = max 16 n in
  locked (fun () ->
      capacity := n;
      List.iter
        (fun r ->
          r.buf <- Array.make (n * stride) 0;
          r.cap <- n;
          clear_ring r)
        !rings)

(* see the header: which records read the clock *)
let expand_stamp_every = 16

let stamp r =
  let now = Clock.now_int_ns () in
  let d = if r.head = 0 then 0 else now - r.last_ns in
  r.last_ns <- now;
  r.quiet <- 0;
  if d < 0 then 0 else d

let write r ~tag ~a ~b ~c =
  let dt =
    if tag = tag_fire || tag = tag_dedup then
      if r.head > 0 then 0 else stamp r
    else if tag = tag_expand && r.quiet < expand_stamp_every - 1 && r.head > 0
    then begin
      r.quiet <- r.quiet + 1;
      0
    end
    else stamp r
  in
  (* [slot + stride <= Array.length buf] by construction *)
  let slot = r.slot and buf = r.buf in
  Array.unsafe_set buf slot tag;
  Array.unsafe_set buf (slot + 1) dt;
  Array.unsafe_set buf (slot + 2) a;
  Array.unsafe_set buf (slot + 3) b;
  Array.unsafe_set buf (slot + 4) c;
  let next = slot + stride in
  r.slot <- (if next >= Array.length buf then 0 else next);
  r.head <- r.head + 1

let record ~tag ~a ~b ~c =
  if !enabled then write (Domain.DLS.get ring_key) ~tag ~a ~b ~c

(* A ring nothing drains: what [local] hands out while recording is off,
   so asking for a ring never creates one. *)
let inert =
  { dom = -1; buf = Array.make stride 0; cap = 1; head = 0; slot = 0;
    last_ns = 0; quiet = 0 }

let local () = if !enabled then Domain.DLS.get ring_key else inert

let record_in r ~tag ~a ~b ~c = if !enabled then write r ~tag ~a ~b ~c

(* ------------------------------- drain -------------------------------- *)

type event = {
  t_ns : int64;  (** absolute monotonic stamp, reconstructed *)
  dom : int;
  tag : int;
  a : int;
  b : int;
  c : int;
}

(* Decode one ring oldest-first.  Absolute stamps are reconstructed
   backwards from [last_ns]: record i's stored delta is t(i) - t(i-1),
   so walking newest to oldest subtracts each record's own delta. *)
let ring_events r =
  let n = min r.head r.cap in
  let out = ref [] in
  let t = ref (Int64.of_int r.last_ns) in
  for k = 0 to n - 1 do
    let slot = (r.head - 1 - k) mod r.cap * stride in
    let buf = r.buf in
    out :=
      {
        t_ns = !t;
        dom = r.dom;
        tag = buf.(slot);
        a = buf.(slot + 2);
        b = buf.(slot + 3);
        c = buf.(slot + 4);
      }
      :: !out;
    t := Int64.sub !t (Int64.of_int buf.(slot + 1))
  done;
  !out

(* Only call from a quiescent caller (no pool jobs in flight): the rings
   belong to other domains.  Par.Pool entry points only return after
   every chunk completes, so any caller outside a worker qualifies. *)
let drain () =
  checked ();
  let evs = locked (fun () -> List.concat_map ring_events !rings) in
  List.stable_sort
    (fun x y ->
      let ct = Int64.compare x.t_ns y.t_ns in
      if ct <> 0 then ct else compare x.dom y.dom)
    evs

let total () = locked (fun () -> List.fold_left (fun n r -> n + r.head) 0 !rings)

let dropped () =
  locked (fun () ->
      List.fold_left (fun n r -> n + max 0 (r.head - r.cap)) 0 !rings)

let reset () =
  locked (fun () ->
      List.iter
        (fun r ->
          Array.fill r.buf 0 (Array.length r.buf) 0;
          clear_ring r)
        !rings)

(* ------------------------ order-free projections ---------------------- *)

(* The determinism-contract views of the stream: counts keyed by stable
   attributes, independent of inter-domain interleaving. *)

let counts_by_tag evs =
  let tbl = Hashtbl.create 16 in
  List.iter
    (fun e ->
      Hashtbl.replace tbl e.tag
        (1 + Option.value ~default:0 (Hashtbl.find_opt tbl e.tag)))
    evs;
  Hashtbl.fold (fun k v acc -> (k, v) :: acc) tbl []
  |> List.sort (fun a b -> compare (fst a) (fst b))

let fire_counts evs =
  let tbl = Hashtbl.create 64 in
  List.iter
    (fun e ->
      if e.tag = tag_fire then
        Hashtbl.replace tbl (e.a, e.b)
          (1 + Option.value ~default:0 (Hashtbl.find_opt tbl (e.a, e.b))))
    evs;
  Hashtbl.fold (fun k v acc -> (k, v) :: acc) tbl []
  |> List.sort (fun a b -> compare (fst a) (fst b))

(* ----------------------------- signals -------------------------------- *)

(* Turn SIGINT/SIGTERM into an orderly [exit] so the at_exit manifest
   writer (Runlog) drains the rings: the flight recording of an
   interrupted run survives in its manifest.  130/143 are the
   conventional 128+signo codes. *)
let signals_armed = ref false

let arm_signal_drain () =
  if not !signals_armed then begin
    signals_armed := true;
    let handler code = Sys.Signal_handle (fun _ -> Stdlib.exit code) in
    (try Sys.set_signal Sys.sigint (handler 130)
     with Invalid_argument _ | Sys_error _ -> ());
    try Sys.set_signal Sys.sigterm (handler 143)
    with Invalid_argument _ | Sys_error _ -> ()
  end

(* ------------------------------- JSON --------------------------------- *)

let schema_name = "asura-events/1"

(* Fire events carry a runtime coverage table id, which is process-local
   — persisted documents carry the registered table name instead, via
   {!Coverage.lookup}. *)
let event_to_json ~t0 e =
  let base =
    [
      ("t_us", Json.Float (Int64.to_float (Int64.sub e.t_ns t0) /. 1e3));
      ("dom", Json.Int e.dom);
      ("tag", Json.Str (tag_name e.tag));
      ("a", Json.Int e.a);
      ("b", Json.Int e.b);
      ("c", Json.Int e.c);
    ]
  in
  let named =
    if e.tag = tag_fire then
      match Coverage.lookup ~id:e.a with
      | Some (name, _) -> base @ [ ("table", Json.Str name) ]
      | None -> base
    else base
  in
  Json.Obj named

let events_to_json evs =
  let t0 = match evs with [] -> 0L | e :: _ -> e.t_ns in
  Json.Obj
    [
      ("schema", Json.Str schema_name);
      ("count", Json.Int (List.length evs));
      ("recorded", Json.Int (total ()));
      ("dropped", Json.Int (dropped ()));
      ("events", Json.List (List.map (event_to_json ~t0) evs));
    ]

let to_json () = events_to_json (drain ())

(* Parsed form of a persisted event: timestamps are relative
   microseconds within the originating run, and fire events carry the
   table name rather than a process-local id. *)
type doc_event = {
  d_t_us : float;
  d_dom : int;
  d_tag : string;
  d_a : int;
  d_b : int;
  d_c : int;
  d_table : string option;
}

let jnum d k = Option.bind (Json.member k d) Json.to_number
let jint d k = Option.map int_of_float (jnum d k)
let jstr d k = Option.bind (Json.member k d) Json.to_str

let doc_event_of_json d =
  match jstr d "tag" with
  | None -> None
  | Some tag ->
      Some
        {
          d_t_us = Option.value ~default:0. (jnum d "t_us");
          d_dom = Option.value ~default:0 (jint d "dom");
          d_tag = tag;
          d_a = Option.value ~default:0 (jint d "a");
          d_b = Option.value ~default:0 (jint d "b");
          d_c = Option.value ~default:0 (jint d "c");
          d_table = jstr d "table";
        }

(* Accepts an asura-events/1 document or any document with an "events"
   member of that shape (run manifests embed one). *)
let of_json doc =
  let node =
    match Json.member "events" doc with
    | Some (Json.Obj _ as nested) -> Some nested
    | Some (Json.List _) -> Some doc
    | _ -> if Json.member "schema" doc = Some (Json.Str schema_name) then Some doc else None
  in
  match node with
  | None -> []
  | Some n -> (
      match Json.member "events" n with
      | Some (Json.List evs) -> List.filter_map doc_event_of_json evs
      | _ -> [])

(* Re-serialize persisted events (e.g. the concatenation of several
   manifests' drains) back into an asura-events/1 document, so `asura
   events dump --runs` emits the same shape as a live dump. *)
let docs_to_json ?(dropped = 0) evs =
  Json.Obj
    [
      ("schema", Json.Str schema_name);
      ("count", Json.Int (List.length evs));
      ("recorded", Json.Int (List.length evs + dropped));
      ("dropped", Json.Int dropped);
      ( "events",
        Json.List
          (List.map
             (fun e ->
               Json.Obj
                 ([
                    ("t_us", Json.Float e.d_t_us);
                    ("dom", Json.Int e.d_dom);
                    ("tag", Json.Str e.d_tag);
                    ("a", Json.Int e.d_a);
                    ("b", Json.Int e.d_b);
                    ("c", Json.Int e.d_c);
                  ]
                 @
                 match e.d_table with
                 | Some t -> [ ("table", Json.Str t) ]
                 | None -> []))
             evs) );
    ]

let doc_dropped doc =
  match Json.member "events" doc with
  | Some (Json.Obj _ as nested) ->
      Option.value ~default:0 (jint nested "dropped")
  | _ -> Option.value ~default:0 (jint doc "dropped")
