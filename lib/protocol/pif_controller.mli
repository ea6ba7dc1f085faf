(** The processor-interface controller table PIF, one per processor.

    Turns processor operations (loads, stores, atomics, I/O, locks) into
    protocol requests on the request channel (VC0), or completes them
    locally on a cache hit.  Its inputs arrive from the processor port,
    not from a virtual channel, so PIF rows induce no channel
    dependencies — transactions {e originate} here, which is what lets
    retry-backoff reissue safely (see {!Node_controller}). *)

val spec : Ctrl_spec.t
