type t = {
  name : string;
  description : string;
  trace : string list;
  chart : string;
  rows_exercised : int option;
      (* controller-table rows this walkthrough covered for the first
         time in the current coverage session; None when coverage is off *)
}

let collect () =
  let log = ref [] in
  (fun line -> log := line :: !log), fun () -> List.rev !log

(* Issue each operation and let the system drain before the next one, so
   walkthroughs document one transaction at a time, like Figure 2. *)
let run_ops ?(nodes = 3) ?(addrs = 1) ?(io_addrs = []) ?(prepare = Fun.id) v ops =
  let config =
    { Runner.v; capacity = Runner.uniform_capacity 4; nodes; addrs; io_addrs }
  in
  let trace, log = collect () in
  let st =
    List.fold_left
      (fun st (node, addr, op) ->
        match
          Runner.run ~script:[ Runner.Issue { node; addr; op } ] ~trace config
            st
        with
        | Runner.Quiescent _, st' -> st'
        | Runner.Deadlock _, _ ->
            failwith "Walkthrough: a representative transaction wedged")
      (prepare (Mcheck.Mstate.initial ~nodes ~addrs))
      ops
  in
  ignore st;
  log ()

(* [trace_f] runs the transaction; bracketing it with coverage totals
   attributes to each walkthrough the rows it is first to exercise, so
   the generated document shows what each transaction adds. *)
let make name description trace_f =
  let covered () = fst (Obs.Coverage.totals (Obs.Coverage.snapshot ())) in
  let before = if Obs.Coverage.on () then Some (covered ()) else None in
  let trace = trace_f () in
  let rows_exercised = Option.map (fun b -> covered () - b) before in
  { name; description; trace; chart = Msc.render_run trace; rows_exercised }

let all ?(v = Checker.Vcassign.debugged) () =
  [
    make "read miss"
      "A load against an uncached line: the directory fetches the data \
       from home memory and installs the requester as a sharer once its \
       completion ack arrives."
      (fun () -> run_ops v [ 0, 0, "load" ]);
    make "store miss with invalidations"
      "The paper's Figure 2: a store against a line shared by two remote \
       nodes.  Both sharers are invalidated (sinv/idone), memory supplies \
       the data, ownership transfers with the exclusive grant."
      (fun () -> run_ops v
         ~prepare:(fun st ->
           let st =
             Mcheck.Mstate.set_addr st 0
               { dirst = Mcheck.Mstate.intern "SI"; sharers = 0b110; busy = None; mem_fresh = true }
           in
           let st = Mcheck.Mstate.set_cache st ~node:1 ~addr:0 (Mcheck.Mstate.intern "S") in
           Mcheck.Mstate.set_cache st ~node:2 ~addr:0 (Mcheck.Mstate.intern "S"))
         [ 0, 0, "store" ]);
    make "ownership upgrade"
      "A store by an existing sharer: no data moves; the other sharer is \
       invalidated and the directory grants ownership with a bare compl."
      (fun () -> run_ops v
         ~prepare:(fun st ->
           let st =
             Mcheck.Mstate.set_addr st 0
               { dirst = Mcheck.Mstate.intern "SI"; sharers = 0b011; busy = None; mem_fresh = true }
           in
           let st = Mcheck.Mstate.set_cache st ~node:0 ~addr:0 (Mcheck.Mstate.intern "S") in
           Mcheck.Mstate.set_cache st ~node:1 ~addr:0 (Mcheck.Mstate.intern "S"))
         [ 0, 0, "store" ]);
    make "writeback"
      "The owner evicts its dirty line: the data is forwarded to memory \
       (mwrite/mack) and the transaction completes with compl."
      (fun () -> run_ops v
         ~prepare:(fun st ->
           let st =
             Mcheck.Mstate.set_addr st 0
               { dirst = Mcheck.Mstate.intern "MESI"; sharers = 0b001; busy = None;
                 mem_fresh = false }
           in
           Mcheck.Mstate.set_cache st ~node:0 ~addr:0 (Mcheck.Mstate.intern "M"))
         [ 0, 0, "evictmod" ]);
    make "read from a dirty owner"
      "A load against a line another node owns dirty: the owner is \
       downgraded with sread, supplies the data, and the directory copies \
       it back to memory with the sharing writeback mupdate."
      (fun () -> run_ops v
         ~prepare:(fun st ->
           let st =
             Mcheck.Mstate.set_addr st 0
               { dirst = Mcheck.Mstate.intern "MESI"; sharers = 0b010; busy = None;
                 mem_fresh = false }
           in
           Mcheck.Mstate.set_cache st ~node:1 ~addr:0 (Mcheck.Mstate.intern "M"))
         [ 0, 0, "load" ]);
    make "uncached I/O read"
      "An I/O-space load: serialized through the busy directory and served \
       by the home device bus (mioread/mdata), no coherence machinery."
      (fun () -> run_ops v ~io_addrs:[ 0 ] [ 0, 0, "ioload" ]);
    make "lock handoff"
      "Acquire and release of a synchronization lock homed in the \
       directory: grant on a free line, release restores it."
      (fun () -> run_ops v [ 0, 0, "lockacq"; 0, 0, "lockrel" ]);
  ]

let to_markdown ws =
  let buf = Buffer.create 4096 in
  Buffer.add_string buf "## Transaction walkthroughs (executed)\n\n";
  List.iter
    (fun w ->
      Buffer.add_string buf (Printf.sprintf "### %s\n\n%s\n\n" w.name w.description);
      (match w.rows_exercised with
      | Some n when n > 0 ->
          Buffer.add_string buf
            (Printf.sprintf "_First to exercise %d controller-table row%s._\n\n"
               n
               (if n = 1 then "" else "s"))
      | Some _ | None -> ());
      Buffer.add_string buf (Printf.sprintf "```\n%s```\n\n" w.chart))
    ws;
  Buffer.contents buf
