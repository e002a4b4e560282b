(* Benchmark harness: regenerates every table and figure of the paper's
   evaluation (Section VI) through the machine models, and snapshots,
   gates and reports the compiler's exact counts.

   Usage:
     bench/main.exe                 run everything
     bench/main.exe table1 fig8 ... run selected experiments
     bench/main.exe verify          semantic cross-check of all versions
     bench/main.exe snapshot --out FILE [--workloads a,b,c] [--small]
                             [--seed N] [--label L]
                                    write a BENCH_*.json snapshot database
                                    (one record of exact counts per
                                    workload x flow)
     bench/main.exe regress --base FILE --cand FILE [--json]
                                    diff two databases, every metric
                                    exactly; exit 1 on regression (the
                                    CI gate), 2 on error
     bench/main.exe report --base FILE --cand FILE
                                    per-array traffic-attribution diff
                                    between two databases (informational,
                                    never gates)
     bench/main.exe parallel [--small] [--workloads a,b] [--jobs N]
                             [--tile N] [--repeat R] [--warmup W]
                                    jobs sweep of the parallel tile-graph
                                    runtime (lib/runtime): trimmed-mean
                                    wall times, speedup vs --jobs 1, and
                                    a race-checked equivalence run; exit
                                    1 on a mismatch or a race *)

(* ------------------------------------------------------------------ *)
(* snapshot / regress: the perf-snapshot and regression-gate commands  *)
(* ------------------------------------------------------------------ *)

let usage_error msg =
  Printf.eprintf "bench: %s\n" msg;
  exit 2

(* Registry entries for a --workloads list: an unknown name is a usage
   error naming it. *)
let entries_of names =
  List.map
    (fun n ->
      if List.mem n Registry.names then Registry.find n
      else
        usage_error
          (Printf.sprintf "unknown workload %s (available: %s)" n
             (String.concat ", " Registry.names)))
    names

(* The two compilation flows every snapshot covers: the start-up
   heuristic alone, and the paper's full post-tiling-fusion flow. *)
let snapshot_flows =
  [ ( "smartfuse",
      fun p ->
        Exp_util.heuristic ~target:Core.Pipeline.Cpu Fusion.Smartfuse p );
    ("ours", fun p -> Exp_util.ours ~target:Core.Pipeline.Cpu p)
  ]

(* Compile one workload with one flow under full instrumentation and
   freeze the result. The cache/interp counters come from the trace-
   driven CPU profile, the traffic volumes from the polyhedral
   footprint model, and one sequential tile-graph run adds the
   runtime.* counters, so a snapshot captures compile-side and machine-
   side behaviour at once. *)
let collect_one ~small (e : Registry.entry) (flow_name, compile) =
  Obs.reset ();
  Presburger.Fm_cache.reset ();
  Obs.enable ();
  let finish () = Obs.disable () in
  match
    let p = if small then e.Registry.small () else e.Registry.build () in
    let v = compile p in
    let report = Exp_util.cpu_profile p v in
    let clusters = Exp_util.clusters p v in
    let traffic = Footprints.program_traffic p clusters in
    let attribution =
      List.map
        (fun (a, (tr : Footprints.traffic)) ->
          (a, tr.Footprints.read_bytes, tr.Footprints.write_bytes))
        (Footprints.program_traffic_by_array p clusters)
    in
    ignore (Runtime.run p ~deps:(Exp_util.deps_of p v) v.Exp_util.ast);
    let cache_levels =
      List.map
        (fun (l : Cache.level_stats) ->
          { Snapshot.cl_name = l.Cache.level;
            cl_hits = l.Cache.hits;
            cl_misses = l.Cache.misses
          })
        report.Cpu_model.cache
    in
    Snapshot.capture ~workload:e.Registry.reg_name ~flow:flow_name
      ~cache_levels ~dram_accesses:report.Cpu_model.dram
      ~traffic:
        { Snapshot.tr_read_bytes = traffic.Footprints.read_bytes;
          tr_write_bytes = traffic.Footprints.write_bytes;
          tr_staged_bytes = Footprints.max_staged_bytes p clusters
        }
      ~ast:
        { Snapshot.ast_loops = Ast.count_loops v.Exp_util.ast;
          ast_kernels = List.length (Ast.kernels v.Exp_util.ast);
          ast_nodes = Ast.count_nodes v.Exp_util.ast
        }
      ~attribution
  with
  | snap ->
      finish ();
      Some snap
  | exception exn ->
      finish ();
      Printf.eprintf "snapshot: %s/%s failed: %s\n%!" e.Registry.reg_name
        flow_name (Printexc.to_string exn);
      None

let snapshot_cmd args =
  let out = ref None in
  let workloads = ref None in
  let small = ref false in
  let label = ref None in
  let seed = ref None in
  let rec parse = function
    | [] -> ()
    | "--out" :: f :: rest ->
        out := Some f;
        parse rest
    | "--workloads" :: ws :: rest ->
        workloads := Some (String.split_on_char ',' ws);
        parse rest
    | "--small" :: rest ->
        small := true;
        parse rest
    | "--seed" :: n :: rest ->
        (match int_of_string_opt n with
        | Some s -> seed := Some s
        | None -> usage_error (Printf.sprintf "--seed expects an integer, got %S" n));
        parse rest
    | "--label" :: l :: rest ->
        label := Some l;
        parse rest
    | a :: _ -> usage_error (Printf.sprintf "snapshot: unknown argument %s" a)
  in
  parse args;
  (* flag > FUZZ_SEED, shared precedence with the fuzz harness; the
     registry seed only moves when one of them is given *)
  (match !seed with
  | Some s -> Random_pipeline.set_registry_seed s
  | None ->
      if Sys.getenv_opt "FUZZ_SEED" <> None then
        Random_pipeline.set_registry_seed (Cli_util.seed_env_default ()));
  let out =
    match !out with
    | Some f -> f
    | None -> usage_error "snapshot: --out FILE is required"
  in
  let entries =
    match !workloads with
    | None -> Registry.all
    | Some names -> entries_of names
  in
  let label =
    match !label with
    | Some l -> l
    | None ->
        (* BENCH_<label>.json -> <label>; otherwise the basename *)
        let base = Filename.remove_extension (Filename.basename out) in
        if String.length base > 6 && String.sub base 0 6 = "BENCH_" then
          String.sub base 6 (String.length base - 6)
        else base
  in
  let snapshots =
    List.concat_map
      (fun e -> List.filter_map (collect_one ~small:!small e) snapshot_flows)
      entries
  in
  let expected = List.length entries * List.length snapshot_flows in
  (match Bench_db.save out (Bench_db.make ~label snapshots) with
  | Ok () -> ()
  | Error msg -> usage_error ("snapshot: " ^ msg));
  Printf.printf "wrote %d/%d snapshots (%d workloads x %d flows%s) to %s\n"
    (List.length snapshots) expected (List.length entries)
    (List.length snapshot_flows)
    (if !small then ", small sizes" else "")
    out;
  if List.length snapshots < expected then exit 1

(* The --base/--cand database pair of regress and report, parsed and
   loaded; [json] (regress only) is set by --json. *)
let load_pair cmd ?json args =
  let base = ref None in
  let cand = ref None in
  let rec parse = function
    | [] -> ()
    | "--base" :: f :: rest ->
        base := Some f;
        parse rest
    | "--cand" :: f :: rest ->
        cand := Some f;
        parse rest
    | "--json" :: rest when json <> None ->
        Option.iter (fun r -> r := true) json;
        parse rest
    | a :: _ -> usage_error (Printf.sprintf "%s: unknown argument %s" cmd a)
  in
  parse args;
  let required name r =
    match !r with
    | Some f -> f
    | None -> usage_error (Printf.sprintf "%s: %s FILE is required" cmd name)
  in
  let base_file = required "--base" base in
  let cand_file = required "--cand" cand in
  let load name file =
    match Bench_db.load file with
    | Ok db -> db
    | Error msg -> usage_error (Printf.sprintf "%s: %s" name msg)
  in
  (load "--base" base_file, load "--cand" cand_file)

let regress_cmd args =
  let json = ref false in
  let base_db, cand_db = load_pair "regress" ~json args in
  let deltas = Bench_db.diff ~base:base_db ~cand:cand_db in
  if !json then print_endline (Bench_db.deltas_json deltas)
  else begin
    Printf.printf "regress: %s (%s) -> %s (%s)\n" base_db.Bench_db.label
      base_db.Bench_db.created cand_db.Bench_db.label cand_db.Bench_db.created;
    print_string (Bench_db.summary_table deltas)
  end;
  exit (Bench_db.gate deltas)

(* ------------------------------------------------------------------ *)
(* report: per-array traffic-attribution diff between two snapshots    *)
(* ------------------------------------------------------------------ *)

(* Informational (never gates): shows where the traffic moved when the
   totals changed, array by array. Pairs snapshots by workload x flow
   like regress does. *)
let report_cmd args =
  let base_db, cand_db = load_pair "report" args in
  Printf.printf "attribution report: %s (%s) -> %s (%s)\n" base_db.Bench_db.label
    base_db.Bench_db.created cand_db.Bench_db.label cand_db.Bench_db.created;
  let key (s : Snapshot.t) = (s.Snapshot.workload, s.Snapshot.flow) in
  let find db k =
    List.find_opt (fun s -> key s = k) db.Bench_db.snapshots
  in
  let changed = ref 0 in
  List.iter
    (fun (b : Snapshot.t) ->
      let w, f = key b in
      match find cand_db (w, f) with
      | None -> Printf.printf "  %s/%s: missing from candidate\n" w f
      | Some c ->
          let ba = b.Snapshot.attribution and ca = c.Snapshot.attribution in
          let arrays =
            List.sort_uniq compare (List.map (fun (a, _, _) -> a) (ba @ ca))
          in
          let lookup rows a =
            match List.find_opt (fun (n, _, _) -> n = a) rows with
            | Some (_, r, wr) -> (r, wr)
            | None -> (0, 0)
          in
          let rows =
            List.filter_map
              (fun a ->
                let br, bw = lookup ba a in
                let cr, cw = lookup ca a in
                if br = cr && bw = cw then None
                else
                  Some
                    [ a;
                      string_of_int br; string_of_int cr;
                      Printf.sprintf "%+d" (cr - br);
                      string_of_int bw; string_of_int cw;
                      Printf.sprintf "%+d" (cw - bw)
                    ])
              arrays
          in
          if rows = [] then
            Printf.printf "  %s/%s: attribution unchanged (%d arrays)\n" w f
              (List.length arrays)
          else begin
            incr changed;
            Printf.printf "  %s/%s:\n" w f;
            Exp_util.print_table
              ~header:
                [ "array"; "read"; "read'"; "dread"; "write"; "write'";
                  "dwrite" ]
              rows
          end)
    base_db.Bench_db.snapshots;
  Printf.printf "%d workload/flow pair(s) with attribution changes\n" !changed

(* ------------------------------------------------------------------ *)
(* parallel: jobs sweep over the tile-graph execution runtime          *)
(* ------------------------------------------------------------------ *)

let default_parallel_workloads =
  [ "conv2d"; "unsharp_mask"; "harris"; "jacobi_unrolled" ]

(* Trimmed mean: drop the min and max sample when we have at least
   three, otherwise plain mean (see EXPERIMENTS.md, speedup
   methodology). *)
let trimmed_mean xs =
  let n = List.length xs in
  let kept =
    if n < 3 then xs
    else List.filteri (fun i _ -> i > 0 && i < n - 1) (List.sort compare xs)
  in
  if kept = [] then 0.0
  else List.fold_left ( +. ) 0.0 kept /. float_of_int (List.length kept)

let parallel_cmd args =
  let small = ref false in
  let workloads = ref None in
  let jobs_flag = ref None in
  let tile = ref 8 in
  let repeat = ref 5 in
  let warmup = ref 1 in
  let int_arg name v =
    match int_of_string_opt v with
    | Some i when i > 0 -> i
    | _ -> usage_error (Printf.sprintf "%s expects a positive integer, got %S" name v)
  in
  let rec parse = function
    | [] -> ()
    | "--small" :: rest ->
        small := true;
        parse rest
    | "--workloads" :: ws :: rest ->
        workloads := Some (String.split_on_char ',' ws);
        parse rest
    | "--jobs" :: n :: rest ->
        jobs_flag := Some (int_arg "--jobs" n);
        parse rest
    | "--tile" :: n :: rest ->
        tile := int_arg "--tile" n;
        parse rest
    | "--repeat" :: n :: rest ->
        repeat := int_arg "--repeat" n;
        parse rest
    | "--warmup" :: n :: rest ->
        warmup := int_arg "--warmup" n;
        parse rest
    | a :: _ -> usage_error (Printf.sprintf "parallel: unknown argument %s" a)
  in
  parse args;
  (* flag > MEMCOMP_JOBS > the sweep's historical default of 4 *)
  let jobs = Cli_util.resolve_jobs ~default:4 !jobs_flag in
  let entries =
    match !workloads with
    | Some names -> entries_of names
    | None -> entries_of default_parallel_workloads
  in
  (* powers of two up to --jobs, always ending at --jobs itself *)
  let sweep =
    let rec build j acc =
      if j >= jobs then List.rev (jobs :: acc) else build (j * 2) (j :: acc)
    in
    build 1 []
  in
  Exp_util.section
    (Printf.sprintf
       "Parallel tile-graph runtime: jobs sweep (tile %d, %d repeats, %d \
        warmup, host exposes %d cores)"
       !tile !repeat !warmup
       (Domain.recommended_domain_count ()));
  let header =
    [ "workload"; "tiles"; "edges" ]
    @ List.map (fun j -> Printf.sprintf "j=%d ms" j) sweep
    @ [ "speedup"; "semantics"; "races" ]
  in
  let rows = ref [] in
  let failed = ref false in
  List.iter
    (fun (e : Registry.entry) ->
      let p = if !small then e.Registry.small () else e.Registry.build () in
      let v = Exp_util.ours ~tile:!tile ~target:Core.Pipeline.Cpu p in
      let deps = Exp_util.deps_of p v in
      let measure j =
        for _ = 1 to !warmup do
          ignore (Runtime.run ~jobs:j p ~deps v.Exp_util.ast)
        done;
        let samples =
          List.init !repeat (fun _ ->
              (Runtime.run ~jobs:j p ~deps v.Exp_util.ast).Runtime.wall_s)
        in
        trimmed_mean samples
      in
      let times = List.map (fun j -> (j, measure j)) sweep in
      let t1 = List.assoc 1 times in
      let tn = List.assoc jobs times in
      let speedup = if tn > 0.0 then t1 /. tn else 1.0 in
      (* correctness: one race-checked run at max jobs vs the
         sequential interpreter *)
      let par = Runtime.run ~jobs ~race_check:true p ~deps v.Exp_util.ast in
      let oracle = Cpu_model.run_to_memory p v.Exp_util.ast in
      let ok =
        List.for_all
          (fun a -> Interp.arrays_equal par.Runtime.mem oracle a)
          p.Prog.live_out
      in
      let races = par.Runtime.metrics.Executor.m_violations in
      rows :=
        ([ e.Registry.reg_name;
           string_of_int (Array.length par.Runtime.graph.Tile_graph.items);
           string_of_int par.Runtime.graph.Tile_graph.n_edges
         ]
        @ List.map (fun (_, t) -> Printf.sprintf "%.2f" (t *. 1000.0)) times
        @ [ Printf.sprintf "%.2fx" speedup;
            (if ok then "ok" else "MISMATCH");
            string_of_int (List.length races)
          ])
        :: !rows;
      if not ok then
        Printf.eprintf "parallel: %s diverges from Interp.run\n%!"
          e.Registry.reg_name;
      if races <> [] then
        Printf.eprintf "parallel: %s: %d race violation(s)\n%!"
          e.Registry.reg_name (List.length races);
      if (not ok) || races <> [] then failed := true)
    entries;
  Exp_util.print_table ~header (List.rev !rows);
  print_endline
    "  (speedup = trimmed-mean j=1 wall / trimmed-mean j=max wall; noisy,\n\
    \   never gates. On a 1-core host expect <= 1.0x.)";
  (* every reported speedup must be backed by a run that matches the
     interpreter with no race *)
  if !failed then exit 1

(* ------------------------------------------------------------------ *)
(* tune: autotuner sweep across workloads                              *)
(* ------------------------------------------------------------------ *)

(* Run the model-guided autotuner over a set of registry workloads and
   print one row per workload: search-space size, evaluation counts,
   modeled default vs tuned cost and the chosen configuration. Shares
   the knob precedence of `memcomp tune` (--jobs/MEMCOMP_JOBS,
   --seed/FUZZ_SEED) and the same tuning database format. *)
let tune_cmd args =
  let small = ref false in
  let workloads = ref None in
  let strategy = ref Tuner.Greedy in
  let budget = ref 48 in
  let jobs_flag = ref None in
  let seed_flag = ref None in
  let db = ref None in
  let int_arg name v =
    match int_of_string_opt v with
    | Some i when i > 0 -> i
    | _ -> usage_error (Printf.sprintf "%s expects a positive integer, got %S" name v)
  in
  let rec parse = function
    | [] -> ()
    | "--small" :: rest ->
        small := true;
        parse rest
    | "--workloads" :: ws :: rest ->
        workloads := Some (String.split_on_char ',' ws);
        parse rest
    | "--strategy" :: s :: rest ->
        (match Tuner.strategy_of_string s with
        | Some st -> strategy := st
        | None -> usage_error (Printf.sprintf "unknown strategy %s" s));
        parse rest
    | "--budget" :: n :: rest ->
        budget := int_arg "--budget" n;
        parse rest
    | "--jobs" :: n :: rest ->
        jobs_flag := Some (int_arg "--jobs" n);
        parse rest
    | "--seed" :: n :: rest ->
        (match int_of_string_opt n with
        | Some s -> seed_flag := Some s
        | None -> usage_error (Printf.sprintf "--seed expects an integer, got %S" n));
        parse rest
    | "--db" :: f :: rest ->
        db := Some f;
        parse rest
    | a :: _ -> usage_error (Printf.sprintf "tune: unknown argument %s" a)
  in
  parse args;
  let jobs = Cli_util.resolve_jobs !jobs_flag in
  let seed =
    match !seed_flag with Some s -> s | None -> Cli_util.seed_env_default ()
  in
  let entries =
    match !workloads with
    | Some names -> entries_of names
    | None -> Registry.all
  in
  Exp_util.section
    (Printf.sprintf "Autotuner sweep: %s strategy, budget %d, %d jobs, seed %d"
       (Tuner.strategy_name !strategy) !budget jobs seed);
  let header =
    [ "workload"; "space"; "eval"; "illegal"; "default cost"; "tuned cost";
      "delta"; "best config"
    ]
  in
  let failures = ref [] in
  let rows =
    List.map
      (fun (e : Registry.entry) ->
        let p = if !small then e.Registry.small () else e.Registry.build () in
        match
          Tuner.tune ~strategy:!strategy ~budget:!budget ~jobs ~seed
            ?db_path:!db p
        with
        | Error msg ->
            failures := (e.Registry.reg_name, msg) :: !failures;
            [ e.Registry.reg_name; "-"; "-"; "-"; "-"; "-"; "-"; "error" ]
        | Ok r ->
            let en = r.Tuner.r_entry in
            let dc = Evaluator.cost en.Tune_db.en_default_score in
            let bc = Evaluator.cost en.Tune_db.en_best_score in
            [ e.Registry.reg_name;
              string_of_int r.Tuner.r_space;
              (string_of_int en.Tune_db.en_evaluated
              ^ if r.Tuner.r_cached then " (db)" else "");
              string_of_int en.Tune_db.en_illegal;
              Printf.sprintf "%.0f" dc;
              Printf.sprintf "%.0f" bc;
              Printf.sprintf "%+.1f%%"
                (if dc = 0.0 then 0.0 else (bc -. dc) /. dc *. 100.0);
              Search_space.candidate_name en.Tune_db.en_best
            ])
      entries
  in
  Exp_util.print_table ~header rows;
  print_endline
    "  (cost = modeled DRAM + staged bytes; tuned <= default by construction,\n\
    \   and the tuned config never models more DRAM traffic than the default)";
  List.iter
    (fun (w, msg) -> Printf.eprintf "tune: %s failed: %s\n%!" w msg)
    (List.rev !failures);
  if !failures <> [] then exit 1

let experiments =
  [ ("table1", Paper_experiments.table1);
    ("fig8", Paper_experiments.fig8);
    ("fig9", Paper_experiments.fig9);
    ("fig10", Paper_experiments.fig10);
    ("table2", Paper_experiments.table2);
    ("table3", Paper_experiments.table3);
    ("compile_time", Paper_experiments.compile_time);
    ("ablations", Ablations.run_all);
    ("verify", Paper_experiments.verify)
  ]

let () =
  let args = List.tl (Array.to_list Sys.argv) in
  match args with
  | [] ->
      print_endline
        "Reproduction of 'Optimizing the Memory Hierarchy by Compositing\n\
         Automatic Transformations on Computations and Data' (MICRO 2020)";
      Paper_experiments.run_all ()
  | "snapshot" :: rest -> snapshot_cmd rest
  | "regress" :: rest -> regress_cmd rest
  | "report" :: rest -> report_cmd rest
  | "parallel" :: rest -> parallel_cmd rest
  | "tune" :: rest -> tune_cmd rest
  | names ->
      List.iter
        (fun n ->
          match List.assoc_opt n experiments with
          | Some f -> f ()
          | None ->
              Printf.eprintf "unknown experiment %s (available: %s)\n" n
                (String.concat ", " (List.map fst experiments));
              exit 1)
        names
