(* Persistent run manifests and the live --progress heartbeat.

   A manifest is one JSON document (schema asura-run/1) describing a
   whole toolchain invocation: argv, git revision, wall time, the
   coverage summary, a metrics snapshot, the span roll-up, the plan log
   and the flight-recorder drain, plus free-form notes the
   command contributes ("mcheck.states_explored", "sim.steps", ...).
   The CLI configures a manifest directory at startup and writes the
   file from an at_exit hook, so every exit path — including violation
   exit code 1 — still persists the run.

   The heartbeat is poll-based: long-running loops call {!tick} from the
   spawning domain (the mcheck sequential loop and the parallel merge
   loop, never a worker), and a line is emitted at most once per
   interval.  Workers stay heartbeat-free, so the determinism contract
   of Par.Pool is untouched. *)

let lock = Mutex.create ()

let locked f =
  Mutex.lock lock;
  Fun.protect ~finally:(fun () -> Mutex.unlock lock) f

(* ------------------------------- sink --------------------------------- *)

(* Heartbeats (and the CLI's Logs reporter, under --log-file) go to this
   channel: stderr by default so stdout stays parseable under
   --progress. *)

let sink_ch = ref stderr
let set_sink oc = sink_ch := oc
let sink () = !sink_ch

(* ------------------------------ manifest ------------------------------ *)

type state = {
  mutable dir : string option;
  mutable cmd : string;
  mutable argv : string list;
  mutable t0 : int64;  (** monotonic, for elapsed *)
  mutable started_at : float;  (** Unix epoch seconds *)
  mutable notes : (string * Json.t) list;  (** newest first, key-replacing *)
}

let st =
  {
    dir = None;
    cmd = "run";
    argv = [];
    t0 = Clock.now_ns ();
    started_at = 0.;
    notes = [];
  }

let configured () = locked (fun () -> st.dir <> None)

let configure ~dir ~cmd ~argv =
  locked (fun () ->
      st.dir <- Some dir;
      st.cmd <- cmd;
      st.argv <- Array.to_list argv;
      st.t0 <- Clock.now_ns ();
      st.started_at <- Unix.gettimeofday ();
      st.notes <- [])

let note key v =
  locked (fun () ->
      st.notes <- (key, v) :: List.remove_assoc key st.notes)

let git_rev () =
  try
    let ic = Unix.open_process_in "git rev-parse --short HEAD 2>/dev/null" in
    let line = try input_line ic with End_of_file -> "" in
    (match Unix.close_process_in ic with
    | Unix.WEXITED 0 when line <> "" -> Some line
    | _ -> None)
  with _ -> None

let iso8601 epoch =
  let tm = Unix.gmtime epoch in
  Printf.sprintf "%04d-%02d-%02dT%02d:%02d:%02dZ" (tm.Unix.tm_year + 1900)
    (tm.Unix.tm_mon + 1) tm.Unix.tm_mday tm.Unix.tm_hour tm.Unix.tm_min
    tm.Unix.tm_sec

let timestamp_slug epoch =
  let tm = Unix.gmtime epoch in
  Printf.sprintf "%04d%02d%02dT%02d%02d%02dZ" (tm.Unix.tm_year + 1900)
    (tm.Unix.tm_mon + 1) tm.Unix.tm_mday tm.Unix.tm_hour tm.Unix.tm_min
    tm.Unix.tm_sec

let manifest () =
  let cmd, argv, t0, started_at, notes =
    locked (fun () -> (st.cmd, st.argv, st.t0, st.started_at, st.notes))
  in
  let started_at = if started_at = 0. then Unix.gettimeofday () else started_at in
  Json.Obj
    ([
       ("schema", Json.Str "asura-run/1");
       ("cmd", Json.Str cmd);
       ("argv", Json.List (List.map (fun a -> Json.Str a) argv));
       ("date", Json.Str (iso8601 started_at));
       ( "git_rev",
         match git_rev () with Some r -> Json.Str r | None -> Json.Null );
       ("elapsed_s", Json.Float (Clock.to_s (Clock.since t0)));
       (* the ASURA_* knobs this run read, null when unset *)
       ("settings", Settings.to_json ());
     ]
    @ List.rev notes
    @ [
        ("coverage", Coverage.to_json ());
        ("metrics", Metrics.to_json ());
        (* the span roll-up: where the time went, per span name *)
        ("spans", Trace.stats_to_json ());
        (* the plan observatory's snapshot, so reports and `asura plan
           diff` can aggregate planner decisions across runs; stays an
           additive asura-run/1 field *)
        ("plans", Planlog.to_json ());
        (* the flight recorder's ring drain — the last few thousand
           events per domain before this exit, whatever its reason *)
        ("events", Flightrec.to_json ());
      ])

let ensure_dir dir =
  if not (Sys.file_exists dir) then Unix.mkdir dir 0o755

let write () =
  match locked (fun () -> st.dir) with
  | None -> None
  | Some dir ->
      let doc = manifest () in
      let started_at = locked (fun () -> st.started_at) in
      let started_at =
        if started_at = 0. then Unix.gettimeofday () else started_at
      in
      let cmd = locked (fun () -> st.cmd) in
      ensure_dir dir;
      let path =
        Filename.concat dir
          (Printf.sprintf "%s-%s.json" (timestamp_slug started_at) cmd)
      in
      (* write aside and rename into place: an exit cut short mid-write
         leaves a stray .json.tmp, never a truncated .json *)
      let tmp = path ^ ".tmp" in
      let oc = open_out tmp in
      Fun.protect
        ~finally:(fun () -> close_out oc)
        (fun () ->
          output_string oc (Json.to_string doc);
          output_char oc '\n');
      Sys.rename tmp path;
      Some path

(* Manifests embed the coverage summary, a metrics snapshot and the
   flight-recorder drain, so arm both collectors; an interrupted run is
   exactly when the drain matters, so SIGINT/SIGTERM become orderly
   exits and the at_exit write still happens. *)
let start ~dir ~cmd =
  Config.enable ();
  Coverage.enable ();
  Flightrec.arm_signal_drain ();
  configure ~dir ~cmd ~argv:Sys.argv;
  at_exit (fun () ->
      match write () with
      | Some path -> Printf.fprintf (sink ()) "wrote run manifest to %s\n%!" path
      | None -> ())

(* ------------------------------ heartbeat ----------------------------- *)

let progress_interval : float option ref = ref None
let last_beat = ref Int64.min_int

let enable_progress ?(interval_s = 1.0) () =
  progress_interval := Some interval_s;
  last_beat := Int64.min_int

let disable_progress () = progress_interval := None

let tick render =
  match !progress_interval with
  | None -> ()
  | Some iv ->
      let now = Clock.now_ns () in
      if
        !last_beat = Int64.min_int
        || Clock.to_s (Int64.sub now !last_beat) >= iv
      then begin
        last_beat := now;
        let oc = !sink_ch in
        output_string oc (render ());
        output_char oc '\n';
        flush oc
      end

(* ------------------------------ lifecycle ----------------------------- *)

let reset () =
  locked (fun () ->
      st.dir <- None;
      st.cmd <- "run";
      st.argv <- [];
      st.t0 <- Clock.now_ns ();
      st.started_at <- 0.;
      st.notes <- []);
  progress_interval := None;
  last_beat := Int64.min_int
