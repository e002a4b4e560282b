(** Shared CLI/environment knob resolution used by the drivers
    ([bin/memcomp.ml], [bench/main.ml]) and the test harness.

    Three knobs recur across the executables in the tree, each with a
    command-line spelling that wins over an environment fallback:

    - worker count: [--jobs N] over [MEMCOMP_JOBS], default 1;
    - fuzz seed: [--seed N] over [FUZZ_SEED], default 0;
    - fuzz shrinking: [--shrink] over [FUZZ_SHRINK], default off.

    This module is the single home of those precedence rules, so a new
    subcommand (e.g. [memcomp tune]) inherits them by construction. *)

val resolve_jobs : int option -> int
(** [resolve_jobs flag] is the worker-domain count: the flag value when
    given, else [MEMCOMP_JOBS] when it parses as an integer, else 1.
    Always at least 1. *)

val seed_env_default : unit -> int
(** The [FUZZ_SEED] environment value when it parses as an integer,
    else 0. *)

val seed_from_argv : string array -> int * string array
(** Strip [--seed N] from an argv (so Alcotest or another parser never
    sees it) and return the effective seed: the last [--seed] flag wins
    over the [FUZZ_SEED] environment variable, which wins over 0.
    Returns the stripped argv alongside. *)

val shrink_from_argv : ?argv:string array -> unit -> bool * string array
(** Strip [--shrink] from an argv and return whether shrinking is
    requested: the flag, or a non-empty/non-false [FUZZ_SHRINK]
    environment value. Compose with {!seed_from_argv} by passing its
    returned argv. *)
