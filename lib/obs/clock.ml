(* Monotonic time source (CLOCK_MONOTONIC via bechamel's stub), in
   nanoseconds.  Wall-clock time is unsuitable for spans: NTP slews it
   backwards. *)

let now_ns () : int64 = Monotonic_clock.now ()

(* the stub returns an unboxed int64, so converting at once keeps the
   reading an immediate int: no allocation *)
let now_int_ns () = Int64.to_int (Monotonic_clock.now ())
let to_us ns = Int64.to_float ns /. 1_000.
let to_ms ns = Int64.to_float ns /. 1_000_000.
let to_s ns = Int64.to_float ns /. 1_000_000_000.
let since t0 = Int64.sub (now_ns ()) t0

let timed f =
  let t0 = now_ns () in
  let v = f () in
  v, since t0
