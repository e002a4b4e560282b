(* Benchmark harness: regenerates every table and figure of the paper's
   evaluation (Section VI) through the machine models, and snapshots
   and gates the compiler's exact counts.

   Usage:
     bench/main.exe                 run every table and figure
     bench/main.exe table1 fig8 ... run selected experiments (ablations
                                    included)
     bench/main.exe snapshot --out FILE [--workloads a,b,c] [--small]
                             [--seed N] [--label L]
                                    write a BENCH_*.json snapshot database
                                    (one flat map of exact counts per
                                    workload x flow)
     bench/main.exe regress --base FILE --cand FILE [--json]
                                    diff two databases, every metric
                                    exactly; exit 1 on regression (the
                                    CI gate), 2 on error *)

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
   freeze the result. The cache counts come from the trace-driven CPU
   profile, the traffic volumes and their per-array attribution from
   the polyhedral footprint model, and one sequential tile-graph run
   adds the runtime.* counters, so a snapshot captures compile-side and
   machine-side behaviour at once. *)
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
    Bench_db.capture ~workload:e.Registry.reg_name ~flow:flow_name
      (List.concat_map
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
          (Footprints.program_traffic_by_array p clusters))
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

let regress_cmd args =
  let base = ref None in
  let cand = ref None in
  let json = ref false in
  let rec parse = function
    | [] -> ()
    | "--base" :: f :: rest ->
        base := Some f;
        parse rest
    | "--cand" :: f :: rest ->
        cand := Some f;
        parse rest
    | "--json" :: rest ->
        json := true;
        parse rest
    | a :: _ -> usage_error (Printf.sprintf "regress: unknown argument %s" a)
  in
  parse args;
  let required name r =
    match !r with
    | Some f -> f
    | None -> usage_error (Printf.sprintf "regress: %s FILE is required" name)
  in
  let base_file = required "--base" base in
  let cand_file = required "--cand" cand in
  let load name file =
    match Bench_db.load file with
    | Ok db -> db
    | Error msg -> usage_error (Printf.sprintf "%s: %s" name msg)
  in
  let base_db = load "--base" base_file in
  let cand_db = load "--cand" cand_file in
  let deltas = Bench_db.diff ~base:base_db ~cand:cand_db in
  if !json then print_endline (Bench_db.deltas_json deltas)
  else begin
    Printf.printf "regress: %s (%s) -> %s (%s)\n" base_db.Bench_db.label
      base_db.Bench_db.created cand_db.Bench_db.label cand_db.Bench_db.created;
    print_string (Bench_db.summary_table deltas)
  end;
  exit (Bench_db.gate deltas)

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
  | "regress" :: rest -> regress_cmd rest
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
                     "unknown experiment %s (experiments: %s; subcommands: \
                      snapshot, regress)"
                     n
                     (String.concat ", " (List.map fst experiments))))
          names
      in
      List.iter (fun f -> f ()) runs
