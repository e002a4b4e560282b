(* Shared Alcotest entry point for every test binary: instrumentation is
   recorded for the whole run, and when the suite fails the lib/obs
   stats table (per-pass wall times, pass counters including the Fm
   memo caches' fm.cache.* hits/misses/evictions, histograms) is
   printed to stderr before exiting nonzero — so a CI `dune runtest`
   failure shows where the failing binary spent its time without a
   rerun.

   Individual tests remain free to reset/enable/disable Obs themselves
   (test_obs and test_core do); the harness only sets the initial state
   and reads whatever survives to the point of failure. *)

let run ?argv name suites =
  Obs.reset ();
  Obs.enable ();
  match Alcotest.run ?argv ~and_exit:false name suites with
  | () -> ()
  | exception e ->
      Printf.eprintf "\n== obs stats for failing test binary %S ==\n%s%!" name
        (Obs.stats_table ());
      (match e with Alcotest.Test_error -> exit 1 | e -> raise e)

(* Run [ast] through the interpreter and return, per statement name,
   how many instances executed. Every executed instance writes exactly
   once, so the hook counts writes. *)
let instances_per_stmt p ast mem =
  let counts = Hashtbl.create 8 in
  let hook ~kernel:_ ~stmt ~inst:_ ~array:_ ~cell:_ ~addr:_ ~write =
    if write then
      Hashtbl.replace counts stmt
        (1 + Option.value ~default:0 (Hashtbl.find_opt counts stmt))
  in
  ignore (Interp.run ~hook p ast mem : Interp.stats);
  fun name -> Option.value ~default:0 (Hashtbl.find_opt counts name)

(* Seed threading shared by the randomized binaries (test_fuzz,
   test_props): `--seed N` on the command line wins over the FUZZ_SEED
   environment variable, and the flag is stripped from argv before
   Alcotest parses it. Returns (seed, argv-for-alcotest). The
   precedence rules live in the shared Cli_util (lib/obs), so the test
   binaries and the drivers can never drift apart. *)
let seed_from_argv () = Cli_util.seed_from_argv Sys.argv

(* `--shrink` (or FUZZ_SHRINK=1) turns on spec minimization after a
   fuzz mismatch: the failing seed's spec is greedily reduced with
   lib/verify's Shrink before the repro artifact is written. The flag
   is stripped before Alcotest parses argv; pass the argv returned by
   [seed_from_argv] so both flags compose. *)
let shrink_from_argv ?argv () = Cli_util.shrink_from_argv ?argv ()

(* One-line run banner shared by the randomized binaries, so a CI log
   shows the seed offset and shrink mode without digging into argv. *)
let fuzz_banner name ~seed ~shrink =
  if seed <> 0 || shrink then
    Printf.printf "%s: seed offset %d%s (reproduce with --seed %d%s)\n%!" name
      seed
      (if shrink then ", shrinking enabled" else "")
      seed
      (if shrink then " --shrink" else "")
