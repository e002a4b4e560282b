(* memcomp: command-line driver for the post-tiling-fusion compiler.

   Subcommands:
     list                          available workloads
     compile  -w NAME [options]   run a flow, print schedule tree / code
     run      -w NAME [options]   compile, execute through the CPU model
     compare  -w NAME [options]   all flows side by side
     explain  -w NAME [options]   decision trace and traffic attribution
     verify   -w NAME [options]   independent schedule-legality check
     tune     NAME [options]      model-guided autotuning *)

open Cmdliner

let prog_of name small =
  let e = Registry.find name in
  if small then e.Registry.small () else e.Registry.build ()

type flow = F_naive | F_heuristic of Fusion.heuristic | F_ours | F_polymage | F_halide

(* Every flow by its command-line name, in the order compare and verify
   run them. *)
let flows =
  [ ("naive", F_naive);
    ("minfuse", F_heuristic Fusion.Minfuse);
    ("smartfuse", F_heuristic Fusion.Smartfuse);
    ("maxfuse", F_heuristic Fusion.Maxfuse);
    ("hybridfuse", F_heuristic Fusion.Hybridfuse);
    ("ours", F_ours);
    ("polymage", F_polymage);
    ("halide", F_halide)
  ]

let flow_names = String.concat " | " (List.map fst flows)

let flow_conv =
  let parse s =
    match List.assoc_opt s flows with
    | Some f -> Ok f
    | None -> Error (`Msg (Printf.sprintf "unknown flow %s" s))
  in
  let print fmt f =
    Format.pp_print_string fmt (fst (List.find (fun (_, g) -> g = f) flows))
  in
  Arg.conv (parse, print)

(* Malformed values are rejected while parsing, so they surface as a
   usage error (exit 124) naming the value, never as an exception from
   deep inside the compiler. *)
let workload_conv =
  let parse s =
    if List.mem s Registry.names then Ok s
    else
      Error
        (`Msg
          (Printf.sprintf "unknown workload %s (available: %s)" s
             (String.concat ", " Registry.names)))
  in
  Arg.conv (parse, Format.pp_print_string)

let positive_int =
  let parse s =
    match int_of_string_opt s with
    | Some n when n > 0 -> Ok n
    | _ -> Error (`Msg (Printf.sprintf "expected a positive integer, got %s" s))
  in
  Arg.conv (parse, Format.pp_print_int)

let version_of flow ~tile prog =
  match flow with
  | F_naive -> Exp_util.naive prog
  | F_heuristic h -> Exp_util.heuristic ~tile ~target:Core.Pipeline.Cpu h prog
  | F_ours -> Exp_util.ours ~tile ~target:Core.Pipeline.Cpu prog
  | F_polymage -> Exp_util.polymage_version ~tile ~target:Core.Pipeline.Cpu prog
  | F_halide -> Exp_util.halide_version ~tile ~target:Core.Pipeline.Cpu prog

(* --stats / --trace FILE observability flags. Instrumentation is off
   unless one of them is given, so the default output stays
   byte-identical. *)
let stats_arg =
  Arg.(
    value & flag
    & info [ "stats" ]
        ~doc:
          "Print the observability breakdown (per-phase wall times, pass \
           counters, histograms) after the command.")

let trace_arg =
  Arg.(
    value
    & opt (some string) None
    & info [ "trace" ] ~docv:"FILE"
        ~doc:
          "Write a Chrome trace_event JSON file of the nested compiler-phase \
           spans and the compiler's decision events (load in about://tracing \
           or Perfetto).")

let obs_begin ?(json = false) ~stats ~trace () =
  if stats || trace <> None then begin
    Obs.reset ();
    Obs.enable ()
  end;
  fun () ->
    (match trace with
    | Some file -> (
        match Obs.write_chrome_trace file with
        | () -> Printf.eprintf "trace written to %s\n%!" file
        | exception Sys_error msg ->
            Printf.eprintf "warning: could not write trace: %s\n%!" msg)
    | None -> ());
    (* with machine-readable output on stdout the human tables go to
       stderr, so piping the JSON stays clean *)
    if stats then
      if json then output_string stderr (Obs.stats_table ())
      else print_string (Obs.stats_table ())

let workload_arg =
  Arg.(
    required
    & opt (some workload_conv) None
    & info [ "w"; "workload" ] ~docv:"NAME" ~doc:"Workload name (see list).")

let tile_arg =
  Arg.(
    value & opt positive_int 32 & info [ "t"; "tile" ] ~docv:"N" ~doc:"Tile size.")

let small_arg =
  Arg.(value & flag & info [ "small" ] ~doc:"Use the reduced test-size instance.")

let flow_arg =
  Arg.(
    value
    & opt flow_conv F_ours
    & info [ "f"; "flow" ] ~docv:"FLOW" ~doc:(flow_names ^ "."))

let jobs_arg =
  Arg.(
    value & opt positive_int 1
    & info [ "jobs" ] ~docv:"N"
        ~doc:
          "Worker domains (explain: the parallel runtime; tune: candidate \
           evaluation).")

let exit_race = 3
(* distinct exit code when the tile race checker fires *)

let run_parallel_report prog (v : Exp_util.version) ~jobs ~race_check =
  let deps = Exp_util.deps_of prog v in
  let r = Runtime.run ~jobs ~race_check prog ~deps v.Exp_util.ast in
  let oracle = Cpu_model.run_to_memory prog v.Exp_util.ast in
  let ok =
    List.for_all
      (fun a -> Interp.arrays_equal oracle r.Runtime.mem a)
      prog.Prog.live_out
  in
  let m = r.Runtime.metrics in
  Printf.printf "  parallel    %d tiles, %d edges, %d jobs\n"
    m.Executor.m_tiles r.Runtime.graph.Tile_graph.n_edges m.Executor.m_jobs;
  Printf.printf "  parallel    %.3f ms wall, %d steals\n"
    (1e3 *. r.Runtime.wall_s) m.Executor.m_steals;
  Printf.printf "  semantics   %s vs sequential oracle\n"
    (if ok then "ok" else "MISMATCH");
  (match m.Executor.m_violations with
  | [] -> if race_check then Printf.printf "  races       none detected\n"
  | vs ->
      Printf.printf "  races       %d violation(s), first: tile %d read cell %d \
                     of incomplete tile %d\n"
        (List.length vs) (List.hd vs).Executor.v_tile
        (List.hd vs).Executor.v_cell (List.hd vs).Executor.v_writer);
  (ok, m.Executor.m_violations <> [])

let list_cmd =
  let doc = "List the available workloads." in
  let run () =
    List.iter
      (fun (e : Registry.entry) ->
        Printf.printf "  %-18s %s\n" e.Registry.reg_name e.Registry.description)
      Registry.all
  in
  Cmd.v (Cmd.info "list" ~doc) Term.(const run $ const ())

let compile_cmd =
  let doc = "Compile a workload and print the schedule tree and generated code." in
  let show_tree =
    Arg.(value & flag & info [ "tree" ] ~doc:"Print the schedule tree.")
  in
  let run workload tile small flow tree_flag stats trace =
    let finish = obs_begin ~stats ~trace () in
    let prog = prog_of workload small in
    let v = version_of flow ~tile prog in
    Printf.printf "workload %s, flow %s (compiled in %.3fs)\n\n" workload
      v.Exp_util.ver_name v.Exp_util.compile_s;
    if tree_flag then
      print_endline (Schedule_tree.to_string (Exp_util.tree_of prog v));
    print_endline (Ast.to_string v.Exp_util.ast);
    finish ()
  in
  Cmd.v
    (Cmd.info "compile" ~doc)
    Term.(
      const run $ workload_arg $ tile_arg $ small_arg $ flow_arg $ show_tree
      $ stats_arg $ trace_arg)

let run_cmd =
  let doc = "Compile and execute a workload through the trace-driven CPU model." in
  let threads =
    Arg.(
      value & opt positive_int 32
      & info [ "j"; "threads" ] ~docv:"N" ~doc:"Thread count.")
  in
  let run_parallel =
    Arg.(
      value
      & opt (some positive_int) None
      & info [ "run-parallel" ] ~docv:"N"
          ~doc:
            "Also execute the compiled pipeline on the parallel tile-graph \
             runtime with $(docv) worker domains and check the result \
             against the sequential interpreter oracle.")
  in
  let race_check =
    Arg.(
      value & flag
      & info [ "race-check" ]
          ~doc:
            "Enable the debug-mode tile race checker during --run-parallel; \
             detected violations exit with code 3.")
  in
  let run workload tile small flow threads par race_check stats trace =
    let finish = obs_begin ~stats ~trace () in
    let prog = prog_of workload small in
    let v = version_of flow ~tile prog in
    let report = Exp_util.cpu_profile prog v in
    Printf.printf "workload %s, flow %s\n" workload v.Exp_util.ver_name;
    Printf.printf "  instances   %d\n" report.Cpu_model.instances;
    Printf.printf "  operations  %d\n" report.Cpu_model.total_ops;
    List.iter
      (fun (l : Cache.level_stats) ->
        Printf.printf "  %-4s hits %d misses %d\n" l.Cache.level l.Cache.hits
          l.Cache.misses)
      report.Cpu_model.cache;
    Printf.printf "  DRAM        %d\n" report.Cpu_model.dram;
    Printf.printf "  modelled    %.3f ms at %d threads\n"
      (Exp_util.cpu_time_ms prog v ~threads)
      threads;
    let status =
      match par with
      | None -> 0
      | Some jobs ->
          let ok, raced = run_parallel_report prog v ~jobs ~race_check in
          if raced then exit_race else if ok then 0 else 2
    in
    finish ();
    if status <> 0 then Stdlib.exit status
  in
  Cmd.v
    (Cmd.info "run" ~doc)
    Term.(
      const run $ workload_arg $ tile_arg $ small_arg $ flow_arg $ threads
      $ run_parallel $ race_check $ stats_arg $ trace_arg)

let compare_cmd =
  let doc =
    "Compare all flows on one workload (model times + semantics); exits \
     nonzero if any flow's live-out values mismatch the naive reference."
  in
  let run workload tile small stats trace =
    let finish = obs_begin ~stats ~trace () in
    let prog = prog_of workload small in
    let reference = Exp_util.naive prog in
    let mismatches = ref [] in
    let rows =
      List.map
        (fun f ->
          let v = version_of f ~tile prog in
          let ok = Exp_util.check_against prog reference v in
          if not ok then mismatches := v.Exp_util.ver_name :: !mismatches;
          [ v.Exp_util.ver_name;
            Printf.sprintf "%.3f" (Exp_util.cpu_time_ms prog v ~threads:1);
            Printf.sprintf "%.3f" (Exp_util.cpu_time_ms prog v ~threads:32);
            Printf.sprintf "%.2f" v.Exp_util.compile_s;
            (if ok then "ok" else "MISMATCH")
          ])
        (List.map snd flows)
    in
    Exp_util.print_table
      ~header:[ "flow"; "1t (ms)"; "32t (ms)"; "compile (s)"; "semantics" ]
      rows;
    finish ();
    if !mismatches <> [] then begin
      Printf.eprintf "compare: semantic mismatch on %s (flows: %s)\n%!" workload
        (String.concat ", " (List.rev !mismatches));
      Stdlib.exit 1
    end
  in
  Cmd.v
    (Cmd.info "compare" ~doc)
    Term.(const run $ workload_arg $ tile_arg $ small_arg $ stats_arg $ trace_arg)

let explain_cmd =
  let doc =
    "Explain how a workload was compiled and where its memory traffic goes: \
     scheduler decision trace (fusion accept/reject with reasons, tile-shape \
     candidates, post-tiling rewrites), polyhedral and measured per-array \
     traffic attribution, reuse-distance histogram, and runtime tile \
     timelines."
  in
  let json_flag =
    Arg.(
      value & flag
      & info [ "json" ]
          ~doc:"Emit the report as JSON instead of markdown (stdout stays \
                machine-readable; --stats tables go to stderr).")
  in
  let run workload tile small flow jobs json stats trace =
    let finish = obs_begin ~json ~stats ~trace () in
    let prog = prog_of workload small in
    (* collect enables Obs itself: the report is built from its events *)
    let ex =
      Explain.collect ~tile ~jobs ~workload
        ~make:(fun p -> version_of flow ~tile p)
        prog
    in
    if json then print_endline (Explain.to_json_string ex)
    else print_string (Explain.to_markdown ex);
    finish ()
  in
  Cmd.v
    (Cmd.info "explain" ~doc)
    Term.(
      const run $ workload_arg $ tile_arg $ small_arg $ flow_arg $ jobs_arg
      $ json_flag $ stats_arg $ trace_arg)

let verify_cmd =
  let doc =
    "Independently verify schedule legality: a static checker re-derives the \
     instance order from the final schedule tree alone and proves every \
     dependence arc covered, then a dynamic shadow run tags each cell with \
     its writer instances and checks def-before-use, recompute idempotence \
     and live-out coverage against the naive reference. Exits 2 on any \
     violation, dumping the offending dependence and schedule path."
  in
  let flow_opt =
    Arg.(
      value
      & opt (some flow_conv) None
      & info [ "f"; "flow" ] ~docv:"FLOW"
          ~doc:("Verify a single flow (" ^ flow_names ^ "); default: all of them."))
  in
  let static_only =
    Arg.(
      value & flag
      & info [ "static-only" ]
          ~doc:"Skip the dynamic shadow run (no interpretation).")
  in
  let run workload tile small flow static_only stats trace =
    let finish = obs_begin ~stats ~trace () in
    let prog = prog_of workload small in
    let flows = match flow with Some f -> [ f ] | None -> List.map snd flows in
    let reference = lazy (Exp_util.naive prog) in
    let deps = Deps.compute prog in
    let failed = ref false in
    List.iter
      (fun f ->
        let v = version_of f ~tile prog in
        let tree = Exp_util.tree_of prog v in
        let rep =
          Obs.span "verify.static" (fun () -> Legality.check prog ~deps tree)
        in
        Printf.printf
          "flow %-10s static   %d occurrences, %d deps checked, %d inexact: %s\n"
          v.Exp_util.ver_name rep.Legality.rep_occurrences
          rep.Legality.rep_deps_checked rep.Legality.rep_inexact
          (if rep.Legality.rep_violations = [] then "ok" else "VIOLATIONS");
        List.iter
          (fun viol ->
            failed := true;
            Printf.printf "  %s\n" (Legality.violation_string viol))
          rep.Legality.rep_violations;
        if not static_only then begin
          let sh =
            Obs.span "verify.shadow" (fun () ->
                Shadow.validate prog ~ref_ast:(Lazy.force reference).Exp_util.ast
                  ~ast:v.Exp_util.ast)
          in
          Printf.printf
            "flow %-10s shadow   %d reads, %d writes, %d recomputed: %s\n"
            v.Exp_util.ver_name sh.Shadow.sh_reads sh.Shadow.sh_writes
            sh.Shadow.sh_recomputed
            (if sh.Shadow.sh_violations = [] then "ok" else "VIOLATIONS");
          List.iter
            (fun viol ->
              failed := true;
              Printf.printf "  %s\n" (Shadow.violation_string viol))
            sh.Shadow.sh_violations
        end)
      flows;
    finish ();
    if !failed then Stdlib.exit 2
  in
  Cmd.v (Cmd.info "verify" ~doc)
    Term.(
      const run $ workload_arg $ tile_arg $ small_arg $ flow_opt $ static_only
      $ stats_arg $ trace_arg)

let tune_cmd =
  let doc =
    "Model-guided autotuning: search the joint space of tile shapes, fusion \
     heuristic and post-tiling knobs, scoring candidates with the analytic \
     machine model (DRAM traffic + staged bytes + tile-level parallelism). \
     Every candidate is checked by the independent legality verifier \
     (illegal configurations are hard-rejected and counted), and results \
     are cached in a content-addressed tuning database so repeat tunes of \
     an unchanged workload answer instantly."
  in
  let workload_pos =
    Arg.(
      required
      & pos 0 (some workload_conv) None
      & info [] ~docv:"WORKLOAD" ~doc:"Workload name (see list).")
  in
  let strategy_conv =
    let parse s =
      match Tuner.strategy_of_string s with
      | Some st -> Ok st
      | None -> Error (`Msg (Printf.sprintf "unknown strategy %s" s))
    in
    let print fmt s = Format.pp_print_string fmt (Tuner.strategy_name s) in
    Arg.conv (parse, print)
  in
  let strategy_arg =
    Arg.(
      value
      & opt strategy_conv Tuner.Greedy
      & info [ "strategy" ] ~docv:"NAME"
          ~doc:"exhaustive | greedy | random (all deterministic under --seed).")
  in
  let budget_arg =
    Arg.(
      value & opt positive_int 48
      & info [ "budget" ] ~docv:"N"
          ~doc:"Maximum candidate evaluations (compile + verify + score).")
  in
  let seed_arg =
    Arg.(
      value & opt int 0
      & info [ "seed" ] ~docv:"N" ~doc:"PRNG seed for the random strategy.")
  in
  let db_arg =
    Arg.(
      value
      & opt (some string) None
      & info [ "db" ] ~docv:"PATH"
          ~doc:"Tuning database file; without it nothing is persisted.")
  in
  let force_arg =
    Arg.(
      value & flag
      & info [ "force" ]
          ~doc:"Re-tune even when the database already has an entry.")
  in
  let json_flag =
    Arg.(
      value & flag
      & info [ "json" ]
          ~doc:"Emit the tuning report as JSON instead of markdown.")
  in
  let run workload small strategy budget jobs seed db force json stats trace =
    let finish = obs_begin ~json ~stats ~trace () in
    let prog = prog_of workload small in
    match Tuner.tune ~strategy ~budget ~jobs ~seed ?db_path:db ~force prog with
    | Error msg ->
        Printf.eprintf "memcomp tune: %s\n%!" msg;
        finish ();
        Stdlib.exit 2
    | Ok r ->
        if json then
          print_endline (Json_util.Json.to_string (Tuner.report_json r))
        else print_string (Tuner.report_markdown r);
        finish ()
  in
  Cmd.v (Cmd.info "tune" ~doc)
    Term.(
      const run $ workload_pos $ small_arg $ strategy_arg $ budget_arg
      $ jobs_arg $ seed_arg $ db_arg $ force_arg $ json_flag $ stats_arg
      $ trace_arg)

let () =
  let doc =
    "post-tiling fusion: compositing automatic transformations on computations \
     and data (MICRO 2020 reproduction)"
  in
  let info = Cmd.info "memcomp" ~version:"1.0" ~doc in
  exit
    (Cmd.eval
       (Cmd.group info
          [ list_cmd; compile_cmd; run_cmd; compare_cmd; explain_cmd;
            verify_cmd; tune_cmd ]))
