(* Differential fuzzing: random pipelines compiled through every flow
   must compute the same live-out values as the untransformed program.
   This exercises the full stack (dependences, heuristics, Algorithms
   1-3, code generation, interpreter) on shapes no hand-written
   benchmark covers: random DAGs with fan-out, mixed stencil radii,
   floor-division sampling and reductions.

   Seeds are offset by --seed N (stripped before Alcotest sees argv),
   so a failing run reproduces from the seed printed in its failure
   message alone:
     dune exec test/test_fuzz.exe -- --seed 1000

   On a mismatch the full flow name, pipeline summary and final
   schedule tree are printed, and a self-contained repro file is
   written to _build/fuzz_repro_<seed>.ml (uploaded as a CI artifact).
   With --shrink the failing spec is first greedily minimized — the
   repro then holds the smallest spec that still makes that flow
   disagree with the naive reference. *)

let check = Alcotest.check
let bool = Alcotest.bool

(* --seed N: base offset added to every generator seed; --shrink:
   minimize failing specs before writing the repro (shared parsing in
   Harness). *)
let base_seed, argv = Harness.seed_from_argv ()
let shrink_enabled, argv = Harness.shrink_from_argv argv

(* Flows are (name, builder) pairs so the shrinker can re-run just the
   mismatching flow on each candidate spec. *)
let flows =
  [ ("minfuse",
     fun p -> Exp_util.heuristic ~tile:5 ~target:Core.Pipeline.Cpu Fusion.Minfuse p);
    ("smartfuse",
     fun p -> Exp_util.heuristic ~tile:5 ~target:Core.Pipeline.Cpu Fusion.Smartfuse p);
    ("maxfuse",
     fun p -> Exp_util.heuristic ~tile:5 ~target:Core.Pipeline.Cpu Fusion.Maxfuse p);
    ("ours", fun p -> Exp_util.ours ~tile:5 ~target:Core.Pipeline.Cpu p);
    ("polymage", fun p -> Exp_util.polymage_version ~tile:5 ~target:Core.Pipeline.Cpu p)
  ]

(* Tests run from _build/default/test; walk up to the directory that
   holds _build so the artifact lands where CI expects it. *)
let repro_path seed =
  let file = Printf.sprintf "fuzz_repro_%d.ml" seed in
  let rec up d =
    let cand = Filename.concat d "_build" in
    if Sys.file_exists cand && Sys.is_directory cand then
      Some (Filename.concat cand file)
    else
      let parent = Filename.dirname d in
      if parent = d then None else up parent
  in
  match up (Sys.getcwd ()) with Some p -> p | None -> file

let report_mismatch cfg ~seed ~flow_name ~builder p v =
  Printf.printf "fuzz: MISMATCH seed %d, flow %s [%s]\n%!" seed flow_name
    (Random_pipeline.describe p);
  Printf.printf "fuzz: schedule tree of flow %s:\n%s\n%!" flow_name
    (Schedule_tree.to_string (Exp_util.tree_of p v));
  let spec = Random_pipeline.spec_of_seed cfg ~seed in
  let predicate sp =
    let q = Random_pipeline.build_spec sp in
    not (Exp_util.check_against q (Exp_util.naive q) (builder q))
  in
  let spec, note =
    if shrink_enabled then begin
      let o = Shrink.shrink spec ~predicate in
      Printf.printf
        "fuzz: shrunk seed %d from %d to %d stages (%d evals, %d rounds)\n%!"
        seed
        (List.length spec.Random_pipeline.sp_stages)
        (List.length o.Shrink.shrunk.Random_pipeline.sp_stages)
        o.Shrink.evals o.Shrink.rounds;
      ( o.Shrink.shrunk,
        Printf.sprintf "flow %s disagrees with naive (minimized)" flow_name )
    end
    else (spec, Printf.sprintf "flow %s disagrees with naive (unshrunk)" flow_name)
  in
  let path = repro_path seed in
  let oc = open_out path in
  output_string oc (Shrink.repro_ml ~seed ~note spec);
  close_out oc;
  Printf.printf "fuzz: repro written to %s\n%!" path

let run_seed cfg seed =
  let p = Random_pipeline.generate cfg ~seed in
  let reference = Exp_util.naive p in
  List.iter
    (fun (flow_name, builder) ->
      let v = builder p in
      let ok = Exp_util.check_against p reference v in
      if not ok then report_mismatch cfg ~seed ~flow_name ~builder p v;
      check bool
        (Printf.sprintf "seed %d, %s [%s]" seed v.Exp_util.ver_name
           (Random_pipeline.describe p))
        true ok)
    flows

let batch name cfg seeds =
  Alcotest.test_case name `Slow (fun () -> List.iter (run_seed cfg) seeds)

let seeds lo hi = List.init (hi - lo + 1) (fun i -> base_seed + lo + i)

let () =
  Harness.fuzz_banner "fuzz" ~seed:base_seed ~shrink:shrink_enabled;
  let open Random_pipeline in
  Harness.run ~argv "fuzz"
    [ ( "pipelines",
        [ batch "1d basic"
            { default_config with two_d = false; allow_sampling = false;
              allow_reductions = false }
            (seeds 1 15);
          batch "1d sampling"
            { default_config with two_d = false; allow_reductions = false }
            (seeds 16 30);
          batch "1d reductions"
            { default_config with two_d = false; allow_sampling = false }
            (seeds 31 40);
          batch "2d basic"
            { default_config with allow_sampling = false; allow_reductions = false }
            (seeds 41 50);
          batch "2d full" default_config (seeds 51 62);
          batch "2d deep"
            { default_config with max_stages = 10; max_extent = 16 }
            (seeds 63 70)
        ] )
    ]
