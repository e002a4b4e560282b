(* Benchmark harness: regenerates every table and figure of the paper's
   evaluation (Section VI) through the machine models, and prints the
   compiler's exact counts.

   Usage:
     bench/main.exe                 run every table and figure
     bench/main.exe table1 fig8 ... run selected experiments (ablations
                                    included)
     bench/main.exe snapshot [--small] [--workloads a,b,c]
                                    print one sorted "workload flow metric
                                    count" line per exact count, the
                                    tuner's choices included; test/dune
                                    diffs the --small run against
                                    BENCH_baseline_small.txt *)

(* ------------------------------------------------------------------ *)
(* snapshot: the compiler's exact counts, one line each                *)
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
   return its counts as "workload flow metric count" lines. The cache
   counts come from the trace-driven CPU profile, the traffic volumes
   and their per-array attribution from the polyhedral footprint model,
   and one sequential tile-graph run adds the runtime.* counters, so a
   snapshot captures compile-side and machine-side behaviour at once.
   Every span's call count and every Obs counter are read last, after
   the model counts are built, so they include the presburger work of
   the footprint calls. *)
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
    ignore (Runtime.run p ~deps:(Exp_util.deps_of p v) v.Exp_util.ast);
    let bytes prefix (tr : Footprints.traffic) =
      [ (prefix ^ ".read_bytes", tr.Footprints.read_bytes);
        (prefix ^ ".write_bytes", tr.Footprints.write_bytes)
      ]
    in
    let model =
      List.concat_map
        (fun (l : Cache.level_stats) ->
          [ ("cache." ^ l.Cache.level ^ ".hits", l.Cache.hits);
            ("cache." ^ l.Cache.level ^ ".misses", l.Cache.misses)
          ])
        report.Cpu_model.cache
      @ [ ("cache.dram", report.Cpu_model.dram);
          ("traffic.staged_bytes", Footprints.max_staged_bytes p clusters);
          ("ast.loops", Ast.count_loops v.Exp_util.ast);
          ("ast.kernels", List.length (Ast.kernels v.Exp_util.ast));
          ("ast.nodes", Ast.count_nodes v.Exp_util.ast)
        ]
      @ bytes "traffic" traffic
      @ List.concat_map
          (fun (a, tr) -> bytes ("attribution." ^ a) tr)
          (Footprints.program_traffic_by_array p clusters)
    in
    let spans =
      List.map
        (fun (name, (calls, _, _)) -> ("span." ^ name ^ ".calls", calls))
        (Obs.spans_alist ())
    in
    let counters =
      List.map (fun (name, n) -> ("counter." ^ name, n)) (Obs.counters_alist ())
    in
    List.map
      (fun (metric, n) ->
        Printf.sprintf "%s %s %s %d" e.Registry.reg_name flow_name metric n)
      (model @ spans @ counters)
  with
  | lines ->
      finish ();
      Some lines
  | exception exn ->
      finish ();
      Printf.eprintf "snapshot: %s/%s failed: %s\n%!" e.Registry.reg_name
        flow_name (Printexc.to_string exn);
      None

(* The tuner's decisions on a few workloads: one greedy tune at budget
   8, one job and no database, reduced to the chosen and default scores
   and the evaluation counts. Obs stays off, so no counter enters the
   record, and the lines pin what the tuner picks. *)
let tuned_workloads = [ "conv2d"; "harris"; "camera_pipeline"; "2mm" ]

let tuned_one ~small (e : Registry.entry) =
  let p = if small then e.Registry.small () else e.Registry.build () in
  match Tuner.tune ~strategy:Tuner.Greedy ~budget:8 ~jobs:1 p with
  | Ok r ->
      let en = r.Tuner.r_entry in
      let best = en.Tune_db.en_best_score in
      Some
        (List.map
           (fun (metric, n) ->
             Printf.sprintf "%s tuned %s %d" e.Registry.reg_name metric n)
           [ ("tune.best.dram_bytes", best.Evaluator.sc_dram_bytes);
             ("tune.best.staged_bytes", best.Evaluator.sc_staged_bytes);
             ("tune.best.tiles", best.Evaluator.sc_tiles);
             ("tune.best.wavefronts", best.Evaluator.sc_wavefronts);
             ( "tune.default.dram_bytes",
               en.Tune_db.en_default_score.Evaluator.sc_dram_bytes );
             ("tune.evaluated", en.Tune_db.en_evaluated);
             ("tune.illegal", en.Tune_db.en_illegal)
           ])
  | Error msg ->
      Printf.eprintf "snapshot: %s/tuned failed: %s\n%!" e.Registry.reg_name msg;
      None

let snapshot_cmd args =
  let workloads = ref None in
  let small = ref false in
  let rec parse = function
    | [] -> ()
    | "--workloads" :: ws :: rest ->
        workloads := Some (String.split_on_char ',' ws);
        parse rest
    | "--small" :: rest ->
        small := true;
        parse rest
    | a :: _ -> usage_error (Printf.sprintf "snapshot: unknown argument %s" a)
  in
  parse args;
  let entries =
    match !workloads with
    | None -> Registry.all
    | Some names -> entries_of names
  in
  let tuned =
    List.filter
      (fun e -> List.mem e.Registry.reg_name tuned_workloads)
      entries
  in
  let snapshots =
    List.concat_map
      (fun e -> List.filter_map (collect_one ~small:!small e) snapshot_flows)
      entries
    @ List.filter_map (tuned_one ~small:!small) tuned
  in
  List.iter print_endline (List.sort compare (List.concat snapshots));
  if
    List.length snapshots
    < (List.length entries * List.length snapshot_flows) + List.length tuned
  then exit 1

let experiments =
  [ ("table1", Paper_experiments.table1);
    ("fig8", Paper_experiments.fig8);
    ("fig9", Paper_experiments.fig9);
    ("fig10", Paper_experiments.fig10);
    ("table2", Paper_experiments.table2);
    ("table3", Paper_experiments.table3);
    ("compile_time", Paper_experiments.compile_time);
    ("ablations", Ablations.run_all)
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
  | names ->
      (* every name is checked before any experiment runs *)
      let runs =
        List.map
          (fun n ->
            match List.assoc_opt n experiments with
            | Some f -> f
            | None ->
                usage_error
                  (Printf.sprintf
                     "unknown experiment %s (experiments: %s; subcommand: \
                      snapshot)"
                     n
                     (String.concat ", " (List.map fst experiments))))
          names
      in
      List.iter (fun f -> f ()) runs
