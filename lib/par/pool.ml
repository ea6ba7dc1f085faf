(* Persistent domain pool with chunked, deterministic parallel map.

   Worker domains block on a condition variable waiting for jobs; a
   parallel region enqueues one job per chunk (minus one, which the
   calling domain runs itself), then waits on a per-region latch.  Chunk
   results land in slot [i] of a result array, so the merge order is
   fixed by construction no matter which domain finishes first. *)

(* ------------------------- parallelism degree ------------------------- *)

(* 0 until the degree is first read or set.  The default comes from
   ASURA_DOMAINS on the first read, so a malformed value raises
   Obs.Settings.Invalid there rather than at module initialisation. *)
let requested = Atomic.make 0

let domains () =
  match Atomic.get requested with
  | 0 ->
      ignore (Atomic.compare_and_set requested 0 (Obs.Settings.domains ()));
      Atomic.get requested
  | n -> n

let set_domains n = Atomic.set requested (max 1 n)

let with_domains n f =
  let prev = domains () in
  set_domains n;
  Fun.protect ~finally:(fun () -> set_domains prev) f

(* Workers mark themselves so a parallel call made from inside a chunk
   function degrades to the sequential path instead of re-entering (and
   possibly starving) the pool. *)
let in_worker_key = Domain.DLS.new_key (fun () -> false)
let sequential () = Domain.DLS.get in_worker_key || domains () <= 1

(* ------------------------------ the pool ------------------------------ *)

let obs_reg = lazy (Obs.Metrics.registry "par")

type pool = {
  lock : Mutex.t;
  work_available : Condition.t;
  jobs : (unit -> unit) Queue.t;
  mutable workers : int;  (** domains spawned so far *)
}

let pool =
  {
    lock = Mutex.create ();
    work_available = Condition.create ();
    jobs = Queue.create ();
    workers = 0;
  }

(* Chunk functions run here must be pure per the contract in the mli;
   the one sanctioned side effect is Obs.Coverage.record, whose
   per-domain bitmap shards (keyed off this domain's DLS) merge by
   bitwise OR and so cannot observe scheduling order. *)
let worker_loop () =
  Domain.DLS.set in_worker_key true;
  let rec loop () =
    Mutex.lock pool.lock;
    while Queue.is_empty pool.jobs do
      Condition.wait pool.work_available pool.lock
    done;
    let job = Queue.pop pool.jobs in
    Mutex.unlock pool.lock;
    job ();
    loop ()
  in
  loop ()

(* Workers are never joined: they idle on the condition variable and die
   with the process.  [ensure_workers] grows the pool to the high-water
   mark of requested degrees.  Every Domain.spawn is counted in the
   "spawn" counter of the "par" registry: spawning a domain costs
   hundreds of microseconds, so any hot path that re-spawns per region
   (instead of reusing the resident pool) shows up immediately — the
   regression test over repeated chunked regions and stealing searches
   pins this at [domains - 1] no matter how many regions ran. *)
let spawn_counter = lazy (Obs.Metrics.counter (Lazy.force obs_reg) "spawn")

let ensure_workers n =
  Mutex.lock pool.lock;
  let missing = n - pool.workers in
  if missing > 0 then begin
    pool.workers <- n;
    Mutex.unlock pool.lock;
    for _ = 1 to missing do
      Obs.Metrics.incr (Lazy.force spawn_counter);
      ignore (Domain.spawn worker_loop : unit Domain.t)
    done
  end
  else Mutex.unlock pool.lock

(* --------------------- contention instrumentation ---------------------
   Workers stay metric-free (the determinism contract): each chunk only
   stamps raw clock readings into caller-owned arrays, and the spawning
   domain folds them into the "par" registry after the join.  With
   observability off no clock is read and no array is allocated. *)

let ms_bounds = Obs.Metrics.exponential_bounds ~start:0.01 ~factor:4. 12

let chunk_hist =
  lazy (Obs.Metrics.histogram ~bounds:ms_bounds (Lazy.force obs_reg) "chunk_ms")

let wait_hist =
  lazy
    (Obs.Metrics.histogram ~bounds:ms_bounds (Lazy.force obs_reg)
       "queue_wait_ms")

(* Stable short labels for the domains that ever ran a chunk, in order of
   first appearance ("d0" is whichever domain spawned the first region). *)
let slot_lock = Mutex.create ()
let slots : (int, string) Hashtbl.t = Hashtbl.create 8

let slot_name did =
  Mutex.lock slot_lock;
  let name =
    match Hashtbl.find_opt slots did with
    | Some s -> s
    | None ->
        let s = Printf.sprintf "d%d" (Hashtbl.length slots) in
        Hashtbl.add slots did s;
        s
  in
  Mutex.unlock slot_lock;
  name

let us ns = Int64.to_int (Int64.div ns 1000L)

let record_region ~t0 ~starts ~stops ~doms n =
  let reg = Lazy.force obs_reg in
  Obs.Metrics.incr (Obs.Metrics.counter reg "regions");
  Obs.Metrics.add (Obs.Metrics.counter reg "chunks") n;
  let join_t = Obs.Clock.now_ns () in
  for i = 0 to n - 1 do
    if stops.(i) <> 0L then begin
      let busy = Int64.sub stops.(i) starts.(i) in
      let wait = Int64.sub starts.(i) t0 in
      Obs.Metrics.observe (Lazy.force chunk_hist) (Obs.Clock.to_ms busy);
      Obs.Metrics.observe (Lazy.force wait_hist) (Obs.Clock.to_ms wait);
      let s = slot_name doms.(i) in
      Obs.Metrics.add (Obs.Metrics.counter reg ("busy_us." ^ s)) (us busy);
      Obs.Metrics.add (Obs.Metrics.counter reg ("idle_us." ^ s)) (us wait)
    end
  done;
  (* how long the spawning domain sat at the barrier after finishing its
     own chunk — the load-imbalance cost of the region *)
  if stops.(0) <> 0L then
    Obs.Metrics.add
      (Obs.Metrics.counter reg "join_wait_us")
      (us (Int64.sub join_t stops.(0)))

(* Run every thunk, chunk 0 on the calling domain, the rest on workers;
   return only once all have finished.  The first exception (by chunk
   index) is re-raised in the calling domain after the join, so a failing
   chunk cannot leave workers writing into freed result slots. *)
let run_chunks (thunks : (unit -> unit) array) =
  let n = Array.length thunks in
  if n = 1 then thunks.(0) ()
  else begin
    ensure_workers (n - 1);
    let record = Obs.Config.on () in
    let t0 = if record then Obs.Clock.now_ns () else 0L in
    let starts = if record then Array.make n 0L else [||] in
    let stops = if record then Array.make n 0L else [||] in
    let doms = if record then Array.make n 0 else [||] in
    let timed i f () =
      if record then begin
        starts.(i) <- Obs.Clock.now_ns ();
        doms.(i) <- (Domain.self () :> int)
      end;
      f ();
      if record then stops.(i) <- Obs.Clock.now_ns ()
    in
    let failures = Array.make n None in
    let remaining = Atomic.make (n - 1) in
    let done_lock = Mutex.create () in
    let all_done = Condition.create () in
    let guarded i f () =
      (try f () with e -> failures.(i) <- Some e);
      if Atomic.fetch_and_add remaining (-1) = 1 then begin
        Mutex.lock done_lock;
        Condition.signal all_done;
        Mutex.unlock done_lock
      end
    in
    Mutex.lock pool.lock;
    for i = 1 to n - 1 do
      Queue.push (guarded i (timed i thunks.(i))) pool.jobs
    done;
    Condition.broadcast pool.work_available;
    Mutex.unlock pool.lock;
    (try timed 0 thunks.(0) () with e -> failures.(0) <- Some e);
    Mutex.lock done_lock;
    while Atomic.get remaining > 0 do
      Condition.wait all_done done_lock
    done;
    Mutex.unlock done_lock;
    if record then record_region ~t0 ~starts ~stops ~doms n;
    Array.iter (function Some e -> raise e | None -> ()) failures
  end

(* ------------------------- chunked parallel map ------------------------ *)

(* Small-work fallback: below this many items, a chunked parallel region
   runs inline on the calling domain.  Fanning a region out costs queue
   and condition-variable traffic plus a barrier, and every resident
   domain makes each stop-the-world minor collection more expensive —
   for small inputs that fixed cost dwarfs any parallel win (the
   generate-D-incremental and deadlock-V-vc4 seq-vs-par regressions were
   exactly this shape).  The work-stealing frontier ([steal_loop]) is
   not affected: its job count is unknown up front. *)
let inline_threshold = ref 128
let inline_below () = !inline_threshold
let set_inline_below n = inline_threshold := max 0 n

(* Contiguous (offset, length) ranges with sizes differing by at most 1. *)
let ranges n d =
  let base = n / d and extra = n mod d in
  Array.init d (fun i ->
      (i * base) + min i extra, base + if i < extra then 1 else 0)

let map_chunks ?(min_chunk = 1) f a =
  let n = Array.length a in
  let d =
    if sequential () || n <= min_chunk || n < !inline_threshold then 1
    else min (domains ()) (max 1 (n / max 1 min_chunk))
  in
  if d <= 1 then [| f a |]
  else begin
    let rs = ranges n d in
    let out = Array.make d None in
    run_chunks
      (Array.init d (fun i () ->
           let lo, len = rs.(i) in
           out.(i) <- Some (f (Array.sub a lo len))));
    Array.map (function Some v -> v | None -> assert false) out
  end

(* --------------------------- work stealing ---------------------------

   A frontier that never globally synchronizes: each participant owns a
   deque (LIFO at its own end, FIFO at the thief end, the classic
   work-stealing discipline), processes jobs and pushes successors
   locally, and steals from a random victim when its own deque drains.
   Termination is detected with a global count of unfinished jobs: a job
   is "unfinished" from push until its [work] call returns, so the count
   can only reach zero once no job is queued anywhere and no job is
   mid-execution (whose pushes could refill a deque).

   Participants run as ordinary pool jobs through [run_chunks], so the
   resident worker domains are reused — a steal region spawns nothing
   once the pool has reached its high-water mark ("spawn" counter).

   Idle participants first sweep every victim twice, then park on a
   condition variable; pushes and the final decrement broadcast, so a
   parked thief cannot miss the wakeup that carries the last work (the
   parked counter and the re-check both happen under the same lock).
   On a single hardware thread this matters more than steal latency:
   spinning thieves would eat the very core the owner needs. *)

type 'job deque = {
  dq_lock : Mutex.t;
  mutable buf : 'job array;
  mutable head : int;  (** index of the oldest job (thief end) *)
  mutable tail : int;  (** one past the newest job (owner end) *)
}

let deque_create () =
  { dq_lock = Mutex.create (); buf = [||]; head = 0; tail = 0 }

let deque_push d j =
  Mutex.lock d.dq_lock;
  let cap = Array.length d.buf in
  if d.tail - d.head = cap then begin
    (* full: compact into a doubled buffer *)
    let buf = Array.make (max 64 (2 * cap)) j in
    Array.blit d.buf (d.head mod max 1 cap) buf 0 (cap - (d.head mod max 1 cap));
    if cap > 0 then
      Array.blit d.buf 0 buf
        (cap - (d.head mod cap))
        (d.head mod cap);
    d.buf <- buf;
    d.head <- 0;
    d.tail <- cap
  end;
  d.buf.(d.tail mod Array.length d.buf) <- j;
  d.tail <- d.tail + 1;
  Mutex.unlock d.dq_lock

let deque_pop d =
  Mutex.lock d.dq_lock;
  let r =
    if d.tail = d.head then None
    else begin
      d.tail <- d.tail - 1;
      Some d.buf.(d.tail mod Array.length d.buf)
    end
  in
  Mutex.unlock d.dq_lock;
  r

let deque_steal d =
  Mutex.lock d.dq_lock;
  let r =
    if d.tail = d.head then None
    else begin
      let j = d.buf.(d.head mod Array.length d.buf) in
      d.head <- d.head + 1;
      Some j
    end
  in
  Mutex.unlock d.dq_lock;
  r

type 'job ctl = { push : 'job -> unit; stop : unit -> unit }

let steal_loop (type job acc) ~(init : int -> acc)
    ~(work : acc -> job ctl -> job -> unit) (jobs : job list) : acc array =
  if sequential () then begin
    (* Degenerate single-participant loop: a FIFO queue, so at one
       domain the processing order is exactly breadth-first — the same
       order as the sequential reference engine. *)
    let acc = init 0 in
    let q = Queue.create () in
    let stopped = ref false in
    let ctl =
      { push = (fun j -> Queue.add j q); stop = (fun () -> stopped := true) }
    in
    List.iter (fun j -> Queue.add j q) jobs;
    while (not !stopped) && not (Queue.is_empty q) do
      work acc ctl (Queue.pop q)
    done;
    [| acc |]
  end
  else begin
    let w = domains () in
    let deques = Array.init w (fun _ -> deque_create ()) in
    let pending = Atomic.make 0 in
    let stopped = Atomic.make false in
    let park_lock = Mutex.create () in
    let park_cond = Condition.create () in
    let parked = Atomic.make 0 in
    let wake_all () =
      if Atomic.get parked > 0 then begin
        Mutex.lock park_lock;
        Condition.broadcast park_cond;
        Mutex.unlock park_lock
      end
    in
    let accs = Array.init w init in
    (* Seed round-robin so the first sweep finds work everywhere. *)
    List.iteri
      (fun i j ->
        Atomic.incr pending;
        deque_push deques.(i mod w) j)
      jobs;
    let participant self () =
      let rng = Random.State.make [| 0x57ea1; self |] in
      let my = deques.(self) in
      let ctl =
        {
          push =
            (fun j ->
              Atomic.incr pending;
              deque_push my j;
              wake_all ());
          stop =
            (fun () ->
              Atomic.set stopped true;
              wake_all ());
        }
      in
      let acc = accs.(self) in
      let finish_job () =
        if Atomic.fetch_and_add pending (-1) = 1 then
          (* the very last job: nothing queued, nothing mid-flight *)
          wake_all ()
      in
      let try_steal () =
        (* one randomized sweep over the other participants *)
        let off = 1 + Random.State.int rng (w - 1) in
        let rec go k =
          if k = w - 1 then None
          else
            let victim = (self + off + k) mod w in
            match deque_steal deques.(victim) with
            | Some j ->
                (* flight-record the migration: per-domain steal counts
                   are the imbalance evidence `asura events top` shows *)
                Obs.Flightrec.record ~tag:Obs.Flightrec.tag_steal ~a:self
                  ~b:victim ~c:0;
                Some j
            | None -> go (k + 1)
        in
        go 0
      in
      let rec loop idle_sweeps =
        if Atomic.get stopped then ()
        else
          match deque_pop my with
          | Some j ->
              work acc ctl j;
              finish_job ();
              loop 0
          | None -> (
              if Atomic.get pending = 0 then ()
              else
                match try_steal () with
                | Some j ->
                    work acc ctl j;
                    finish_job ();
                    loop 0
                | None ->
                    if idle_sweeps < 2 then loop (idle_sweeps + 1)
                    else begin
                      (* park until a push / the last job / stop *)
                      Mutex.lock park_lock;
                      Atomic.incr parked;
                      if (not (Atomic.get stopped)) && Atomic.get pending > 0
                      then Condition.wait park_cond park_lock;
                      Atomic.decr parked;
                      Mutex.unlock park_lock;
                      loop 0
                    end)
      in
      try loop 0
      with e ->
        (* a crashed participant must not strand the others at the
           termination barrier *)
        Atomic.set stopped true;
        Mutex.lock park_lock;
        Condition.broadcast park_cond;
        Mutex.unlock park_lock;
        raise e
    in
    run_chunks (Array.init w participant);
    accs
  end
