(* Every collector cleared at once: tests, and repeated runs in one
   process.  The --stats printout is a canned-query view over sys.*
   (Systables.stats_db), not a renderer of its own. *)

let reset () =
  Trace.reset ();
  Metrics.reset ();
  Coverage.reset ();
  Runlog.reset ()
