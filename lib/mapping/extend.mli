(** The extended directory table ED (section 5 of the paper).

    Hardware details are added to the debugged table D: finite output
    queues (locmsg / remmsg / memmsg / upd) summarized by a [qstatus]
    input, a directory-update queue summarized by [dqstatus], and a
    feedback path that reinjects a response into the request controller as
    a [dfdback] request when the update queue is full.

    The transformation rules, following the paper's description:
    - a request with [qstatus = Full] is answered [retry] and changes
      nothing (the retry entry is pre-allocated in the locmsg queue);
    - a request with [qstatus = NotFull] behaves as in D; [dqstatus] is
      not consulted for requests;
    - a response that needs a directory update ([dirwr = yes]) with
      [dqstatus = Full] emits only [fdback = dfdback]; with
      [dqstatus = NotFull] it behaves as in D; responses that do not
      update the directory are unaffected;
    - the reinjected [dfdback] request carries its originating response in
      a context column [fdctx] and performs the deferred behaviour when
      both queues have space, re-feeding itself while the update queue
      remains full.

    ED therefore has D's 30 columns plus inputs [qstatus], [dqstatus],
    [fdctx] and output [fdback] — 34 columns. *)

val input_columns : string list
(** ED's 14 input columns, in order. *)

val output_columns : string list
(** ED's 20 output columns, in order. *)

val ed : unit -> Relalg.Table.t
(** The extended table (memoized), generated from {!Protocol.Dir_controller}. *)

val database : unit -> Relalg.Database.t
(** A database holding ED (and the eight controller tables) with the SQL
    functions registered — the input to {!Partition}. *)
