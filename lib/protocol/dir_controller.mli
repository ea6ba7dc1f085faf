(** The directory controller table D (sections 2.1 and 3 of the paper).

    D is the protocol engine of a quad: it serializes all transactions to
    the addresses homed in the quad, tracks sharing in the directory
    (state + presence vector) and in-flight transactions in the busy
    directory, snoops remote nodes, and reads/writes home memory.

    The table has 30 columns — 11 inputs and 19 outputs:

    inputs:  [inmsg inmsgsrc inmsgdest inmsgres addrspace
              dirst dirpv bdirst bdirpv dirlookup bdirlookup]
    outputs: [locmsg locmsgsrc locmsgdest locmsgres
              remmsg remmsgsrc remmsgdest remmsgres
              memmsg memmsgsrc memmsgdest memmsgres
              nxtdirst nxtdirpv nxtbdirst nxtbdirpv dirwr bdirop datasrc]

    Protocol conventions encoded here (where the paper is silent we follow
    DASH-style rules, documented per scenario label):
    - a request that finds the line busy is answered [retry], for every
      request type against every busy state (the paper's serialization
      discipline, and the bulk of the table's rows — "all transaction
      interleavings");
    - starting a transaction moves the line from the directory to the busy
      directory ([dirwr = yes], [nxtdirst = I], [bdirop = alloc]), so the
      mutual-exclusion invariant between the two structures holds;
    - [datax] is the combined exclusive-data + completion response (the
      paper sends separate [data] and [compl]; one output column per
      destination forces the combined form — see EXPERIMENTS.md, E2);
    - dirty remote data is collected with [sread] / [sflush] and never
      written back to memory from response processing, so the debugged
      virtual-channel assignment is deadlock-free (see
      {!Checker.Deadlock}). *)

val spec : Ctrl_spec.t
(** The full specification (column tables + scenarios). *)

val table : unit -> Relalg.Table.t
(** The generated table (memoized). *)

val input_columns : string list
val output_columns : string list

val busy_retry_label : string
(** The scenario serializing requests against busy lines — the target of
    the seeded-bug experiment that breaks the serialization invariant. *)

val figure3 : unit -> Relalg.Table.t
(** The paper's Figure 3: the readex-transaction rows of D projected onto
    (inmsg, dirst, dirpv, locmsg, remmsg, memmsg, nxtdirst, nxtdirpv),
    with busy states shown in the dirst column as in the paper. *)
