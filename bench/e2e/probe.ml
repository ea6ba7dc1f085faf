(* The host-speed probe.

   The host's speed drifts: other tenants share its cores, caches and
   memory, and the same request can take twice as long for minutes at a
   time (README.md, "Host-speed correction").  A child times this probe
   right after every timed request.  Scaling the request's latency by
   [reference_s /. probe time] reports it at the speed of a quiet host,
   so runs taken minutes apart are comparable.

   The probe allocates short-lived list cells: the minor-heap allocation
   and the two-domain minor collections that every workload spends much
   of its time in.  Of the probes tried (dependent loads in L2 and in
   L3, integer arithmetic, streaming stores, bare minor collections, and
   this one in a separate process or on two domains), this one tracked
   the workloads' slow-downs best; it fits the workloads that keep both
   domains busy least.  It uses only the standard library, and the minor
   collection before it empties the minor heap, so each probe runs the
   same number of collections whatever the request left behind. *)

let cells = 400_000

let work () =
  let r = ref [] in
  for i = 1 to cells do
    r := [ i ];
    ignore (Sys.opaque_identity !r : int list)
  done;
  List.length !r

(* The probe's time on a quiet host (2-vCPU Xeon VM): the speed every
   corrected time is reported at. *)
let reference_s = 0.8e-3

(* Seconds one run of the probe takes now. *)
let time () =
  Gc.minor ();
  let t0 = Obs.Clock.now_ns () in
  ignore (work () : int);
  Int64.to_float (Int64.sub (Obs.Clock.now_ns ()) t0) /. 1e9
