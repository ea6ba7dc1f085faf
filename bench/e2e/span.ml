(* The benchmark's own span recorder, used only by the traced run.

   Spans live in memory; when a child exits it hands them to the parent
   as Chrome trace events, and the parent writes the file.  Each span
   has an id, its parent span, the request it belongs to, a name, and a
   start and end on the monotonic clock.  Besides spans, a request
   accumulates named counts, and [busy] sections: per-call time summed
   into a layer without one span per call, for loops that would
   otherwise record a span per model-checker state.

   Every entry point is a no-op while the recorder is off, so the real
   requests call [count] unconditionally. *)

type span = {
  id : int;
  parent : int;  (** -1 for a request's root span *)
  req : int;
  name : string;
  t0 : int;  (** monotonic ns *)
  t1 : int;
}

let on = ref false
let spans : span list ref = ref []
let next_id = ref 0
let open_span = ref (-1)
let req = ref 0

(* (request, name) -> summed value: counts, and busy nanoseconds *)
let counts : (int * string, float) Hashtbl.t = Hashtbl.create 64
let busy_ns : (int * string, float) Hashtbl.t = Hashtbl.create 64

(* span id -> busy nanoseconds spent while it was the innermost span *)
let busy_under : (int, float) Hashtbl.t = Hashtbl.create 64

let add tbl k v =
  Hashtbl.replace tbl k (v +. Option.value (Hashtbl.find_opt tbl k) ~default:0.)

let now () = Int64.to_int (Obs.Clock.now_ns ())

let span name f =
  if not !on then f ()
  else begin
    let id = !next_id and parent = !open_span in
    incr next_id;
    open_span := id;
    let t0 = now () in
    Fun.protect f ~finally:(fun () ->
        let t1 = now () in
        open_span := parent;
        spans := { id; parent; req = !req; name; t0; t1 } :: !spans)
  end

let count name n = if !on then add counts (!req, name) (float_of_int n)

let busy name f =
  if not !on then f ()
  else begin
    let t0 = now () in
    let r = f () in
    let ns = float_of_int (now () - t0) in
    add busy_ns (!req, name) ns;
    add busy_under !open_span ns;
    r
  end

(* Open request [id] and run [f] under its root span [name]. *)
let request ~id name f =
  req := id;
  span name f

(* Per-request layer table, in nanoseconds: the self time of every
   non-root span (its duration minus the time its child spans and busy
   sections cover), summed by name, plus the busy sections by name. *)
let self_times () =
  let covered = Hashtbl.copy busy_under in
  List.iter
    (fun s -> if s.parent >= 0 then add covered s.parent (float_of_int (s.t1 - s.t0)))
    !spans;
  let out = Hashtbl.copy busy_ns in
  List.iter
    (fun s ->
      if s.parent >= 0 then
        add out (s.req, s.name)
          (float_of_int (s.t1 - s.t0)
          -. Option.value (Hashtbl.find_opt covered s.id) ~default:0.))
    !spans;
  out

(* One Chrome complete ("X") event per span, one process per child
   launch, microsecond stamps. *)
let chrome_event ~pid s =
  let us t = float_of_int t /. 1e3 in
  Obs.Json.(
    Obj
      [ "name", Str s.name; "cat", Str "e2e"; "ph", Str "X";
        "ts", Float (us s.t0); "dur", Float (us (s.t1 - s.t0));
        "pid", Int pid; "tid", Int 0;
        "args", Obj [ "id", Int s.id; "parent", Int s.parent; "request", Int s.req ] ])
