(* Shared CLI/env knob precedence rules (see cli_util.mli). Formerly
   duplicated across bin/memcomp.ml, bench/main.ml and test/harness.ml;
   keep behaviour changes here so every executable agrees. *)

let int_env name =
  match Sys.getenv_opt name with
  | Some s -> int_of_string_opt s
  | None -> None

let resolve_jobs = function
  | Some n -> max 1 n
  | None -> (
      match int_env "MEMCOMP_JOBS" with Some n -> max 1 n | None -> 1)

let seed_env_default () =
  match int_env "FUZZ_SEED" with Some n -> n | None -> 0

let seed_from_argv argv =
  let env_seed = seed_env_default () in
  let rec strip acc seed = function
    | [] -> (seed, List.rev acc)
    | "--seed" :: v :: rest -> (
        match int_of_string_opt v with
        | Some n -> strip acc n rest
        | None -> strip acc seed rest)
    | a :: rest -> strip (a :: acc) seed rest
  in
  let seed, args = strip [] env_seed (Array.to_list argv) in
  (seed, Array.of_list args)

let shrink_from_argv ?(argv = Sys.argv) () =
  let env =
    match Sys.getenv_opt "FUZZ_SHRINK" with
    | Some ("" | "0" | "false" | "no") | None -> false
    | Some _ -> true
  in
  let rec strip acc on = function
    | [] -> (on, List.rev acc)
    | "--shrink" :: rest -> strip acc true rest
    | a :: rest -> strip (a :: acc) on rest
  in
  let on, args = strip [] env (Array.to_list argv) in
  (on, Array.of_list args)
