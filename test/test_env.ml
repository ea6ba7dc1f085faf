(* Scoped environment overrides for tests that flip an [ASURA_*] knob.

   The suites run in one process, in order, and the library reads these
   variables on every call, so a test that sets one must hand back
   exactly the value it found: a run under [ASURA_PLAN_BUILD=left] has
   to keep that value for every later suite.  OCaml has no [unsetenv]; a
   variable that was unset is restored as the empty string, which only
   [ASURA_PLAN_BUILD] accepts (as unset): [ASURA_DOMAINS] and
   [ASURA_FLIGHTREC] refuse it, so tests of those knobs call their
   declaration's parser ([Obs.Settings.parse_domains] and
   [parse_flightrec]) instead of setting the variable. *)

let with_env name value f =
  let saved = Sys.getenv_opt name in
  Unix.putenv name value;
  Fun.protect
    ~finally:(fun () -> Unix.putenv name (Option.value saved ~default:""))
    f
