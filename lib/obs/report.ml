(* The --stats text renderer: span roll-up followed by all metric
   registries. *)

let render () =
  let buf = Buffer.create 2048 in
  let pr fmt = Printf.ksprintf (Buffer.add_string buf) fmt in
  (match Trace.span_stats () with
  | [] -> ()
  | stats ->
      pr "=== spans ===\n";
      pr "%-36s %8s %12s %12s %12s\n" "span" "count" "total ms" "mean us"
        "max us";
      List.iter
        (fun (s : Trace.span_stat) ->
          pr "%-36s %8d %12.3f %12.1f %12.1f\n" s.span s.count
            (s.total_us /. 1000.)
            (s.total_us /. float_of_int s.count)
            s.max_us)
        stats);
  let metrics = Metrics.summary () in
  if metrics <> "" then begin
    pr "=== metrics ===\n";
    Buffer.add_string buf metrics
  end;
  Buffer.contents buf

let reset () =
  Trace.reset ();
  Metrics.reset ();
  Coverage.reset ();
  Runlog.reset ()
