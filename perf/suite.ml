(* The four workloads: their programs, their ops and their output checks.

   Every workload is a closed loop with one client: the next op starts
   when the previous one returns. A pass runs every op of the workload
   once, in a fixed order; main.ml repeats passes. An op is split into
   a timed call and an untimed inspection of what the call returned, so
   checks never count as op time.

   The seed makes the inputs: the seeded random pipelines and the data
   every array is filled with. The registry and resnet programs are the
   same under every seed; only they count toward the exact [offchip_mb]
   metric, so that metric does not depend on the seed. *)

type flow = Ours | Smartfuse

let flow_name = function Ours -> "ours" | Smartfuse -> "smartfuse"

(* What one op returned, as its untimed inspection sees it. *)
type sample = {
  fingerprint : string;  (* exact outputs, which must repeat across passes *)
  ok : bool;  (* the op's own output check (execute-tiles) *)
  ast_nodes : int;
  dram_lines : int;
  instances : int;
  l1_hits : int;
  l1_misses : int;
  execute_s : float;  (* Runtime.result.wall_s *)
  profile_s : float;  (* wall time of the op's Cpu_model.profile call *)
}

let blank =
  { fingerprint = "";
    ok = true;
    ast_nodes = 0;
    dram_lines = 0;
    instances = 0;
    l1_hits = 0;
    l1_misses = 0;
    execute_s = 0.0;
    profile_s = 0.0
  }

type op = {
  name : string;
  fixed : bool;  (* the same program under every seed *)
  run : unit -> unit -> sample;
      (* the timed call; the closure it returns inspects the result *)
  interp_only : unit -> unit;
      (* traced runs only, outside the op: run the last AST again
         without the cache simulator *)
  verify : unit -> bool;
      (* the last result's live-outs equal the naive schedule's *)
  offchip_bytes : unit -> int;  (* off-chip traffic of the last result *)
}

type t = {
  ops : op list;  (* one pass, canonical order *)
  warmup : op;  (* run once, untimed, at the end of set-up *)
  verify_ops : op list;  (* the ops whose outputs are checked after timing *)
  pass_s : float;
      (* wall seconds of one pass on the reference machine (README.md),
         which sizes the fixed number of passes a run makes *)
}

let names = [ "compile-cold"; "execute-resnet"; "execute-tiles"; "tune-warm" ]

(* The tile edge of both flows (the pipeline's default). *)
let tile = 32

(* Cache.scaled_xeon uses 64-byte lines at every level. *)
let line_bytes = 64

let last_of r =
  match !r with
  | Some v -> v
  | None -> invalid_arg "perf: op inspected before it ran"

let registry ~smoke names =
  List.map
    (fun n ->
      let e = Registry.find n in
      (n, if smoke then e.Registry.small () else e.Registry.build ()))
    names

(* The full-size registry programs other than resnet50, whose layers
   execute-resnet runs, and fuzz_pipeline, which the seeded random
   pipelines stand in for. *)
let compile_names ~smoke =
  if smoke then [ "conv2d"; "harris" ]
  else
    List.filter (fun n -> n <> "resnet50" && n <> "fuzz_pipeline") Registry.names

let image_names ~smoke =
  if smoke then [ "conv2d"; "unsharp_mask" ]
  else
    [ "conv2d"; "unsharp_mask"; "harris"; "bilateral_grid"; "camera_pipeline";
      "local_laplacian"; "multiscale_interp" ]

let random_programs cfg ~seed ~count =
  List.init count (fun i ->
      let p = Random_pipeline.generate cfg ~seed:((seed * 100) + i) in
      (p.Prog.prog_name, p))

let naive_reference ~fill p =
  lazy (Cpu_model.run_to_memory ~seed:fill p (Exp_util.naive p).Exp_util.ast)

let live_outs_equal p reference mem =
  List.for_all (fun a -> Interp.arrays_equal reference mem a) p.Prog.live_out

let run_matches ~fill p reference ast =
  live_outs_equal p (Lazy.force reference) (Cpu_model.run_to_memory ~seed:fill p ast)

let traffic_bytes p clusters =
  let t = Footprints.program_traffic p clusters in
  t.Footprints.read_bytes + t.Footprints.write_bytes

(* The two compile paths, each call wrapped in a span that names its
   layer (a no-op unless a traced run enabled Obs). Returns the AST and
   the footprint clusters of the result, computed only when asked. *)
let compile flow p =
  let target = Core.Pipeline.Cpu in
  match flow with
  | Ours ->
      let c =
        Obs.span "bench.core.run" (fun () ->
            Core.Pipeline.run ~tile_size:tile ~target p)
      in
      let ast =
        Obs.span "bench.codegen.generate" (fun () ->
            Gen.generate p c.Core.Pipeline.tree)
      in
      (ast, lazy (Footprints.clusters_of_compiled c))
  | Smartfuse ->
      let b =
        Obs.span "bench.core.run" (fun () ->
            Core.Pipeline.run_heuristic ~tile_size:tile ~target Fusion.Smartfuse p)
      in
      let ast =
        Obs.span "bench.codegen.generate" (fun () ->
            Gen.generate p b.Core.Pipeline.b_tree)
      in
      (ast, lazy (Footprints.clusters_of_baseline ~tile_size:tile b))

(* ------------------------------------------------------------------ *)
(* Ops                                                                 *)
(* ------------------------------------------------------------------ *)

(* compile-cold: one compile, the [memcomp compile] path. *)
let compile_op ~fill ~fixed ~reference (name, p) flow =
  let last = ref None in
  { name = name ^ "/" ^ flow_name flow;
    fixed;
    run =
      (fun () ->
        let ast, clusters = compile flow p in
        fun () ->
          last := Some (ast, clusters);
          let n = Ast.count_nodes ast in
          { blank with fingerprint = string_of_int n; ast_nodes = n });
    interp_only = ignore;
    verify = (fun () -> run_matches ~fill p reference (fst (last_of last)));
    offchip_bytes = (fun () -> traffic_bytes p (Lazy.force (snd (last_of last))))
  }

(* execute-resnet: compile, then execute through the cache simulator
   (the [memcomp run] path). Cpu_model.profile is called directly:
   Exp_util.cpu_profile would answer a repeated profile from its cache. *)
let profile_op ~fill (name, p) =
  let last = ref None in
  let reference = naive_reference ~fill p in
  { name = name ^ "/ours";
    fixed = true;
    run =
      (fun () ->
        let ast, _ = compile Ours p in
        let t0 = Unix.gettimeofday () in
        let r =
          Obs.span "bench.machine.profile" (fun () -> Cpu_model.profile ~seed:fill p ast)
        in
        let profile_s = Unix.gettimeofday () -. t0 in
        fun () ->
          last := Some (ast, r);
          let l1 =
            List.find_opt (fun l -> l.Cache.level = "L1") r.Cpu_model.cache
          in
          let n = Ast.count_nodes ast in
          { blank with
            fingerprint =
              Printf.sprintf "%d %d %d" n r.Cpu_model.dram r.Cpu_model.instances;
            ast_nodes = n;
            dram_lines = r.Cpu_model.dram;
            instances = r.Cpu_model.instances;
            l1_hits = Option.fold ~none:0 ~some:(fun l -> l.Cache.hits) l1;
            l1_misses = Option.fold ~none:0 ~some:(fun l -> l.Cache.misses) l1;
            profile_s
          });
    interp_only =
      (fun () -> ignore (Cpu_model.run_to_memory ~seed:fill p (fst (last_of last))));
    verify = (fun () -> run_matches ~fill p reference (fst (last_of last)));
    offchip_bytes = (fun () -> (snd (last_of last)).Cpu_model.dram * line_bytes)
  }

(* execute-tiles: the program is compiled once, during set-up; one op
   executes it on the tile-graph runtime with one worker. *)
let tiles_op ~fill (name, p) =
  let c = Core.Pipeline.run ~tile_size:tile ~target:Core.Pipeline.Cpu p in
  let ast = Gen.generate p c.Core.Pipeline.tree in
  let nodes = Ast.count_nodes ast in
  let reference = naive_reference ~fill p in
  { name = name ^ "/ours";
    fixed = true;
    run =
      (fun () ->
        let r =
          Obs.span "bench.runtime.run" (fun () ->
              Runtime.run ~jobs:1 ~seed:fill p ~deps:c.Core.Pipeline.deps ast)
        in
        fun () ->
          let g = r.Runtime.graph in
          { blank with
            fingerprint =
              Printf.sprintf "%d %d" (Tile_graph.n_items g) g.Tile_graph.n_edges;
            ok = live_outs_equal p (Lazy.force reference) r.Runtime.mem;
            ast_nodes = nodes;
            execute_s = r.Runtime.wall_s
          });
    interp_only = (fun () -> ignore (Cpu_model.run_to_memory ~seed:fill p ast));
    verify = (fun () -> run_matches ~fill p reference ast);
    offchip_bytes =
      (fun () -> traffic_bytes p (Footprints.clusters_of_compiled c))
  }

(* tune-warm: one greedy tune of eight evaluations with no tuning
   database, so nothing is answered from disk. The Fm cache starts
   empty and stays warm within the tune. *)
let tune_op ~fill ~fixed (name, p) =
  let last = ref None in
  let reference = naive_reference ~fill p in
  { name = name ^ "/tuned";
    fixed;
    run =
      (fun () ->
        match
          Obs.span "bench.tuner.tune" (fun () ->
              Tuner.tune ~strategy:Tuner.Greedy ~budget:8 ~jobs:1 p)
        with
        | Error msg -> failwith msg
        | Ok r ->
            fun () ->
              let e = r.Tuner.r_entry in
              last := Some e;
              { blank with
                fingerprint =
                  Printf.sprintf "%s %d %d"
                    (Search_space.candidate_name e.Tune_db.en_best)
                    e.Tune_db.en_best_score.Evaluator.sc_dram_bytes
                    e.Tune_db.en_evaluated
              });
    interp_only = ignore;
    verify =
      (fun () ->
        let v =
          Evaluator.version_of ~target:Core.Pipeline.Cpu p
            (last_of last).Tune_db.en_best
        in
        run_matches ~fill p reference v.Exp_util.ast);
    offchip_bytes =
      (fun () -> (last_of last).Tune_db.en_best_score.Evaluator.sc_dram_bytes)
  }

(* ------------------------------------------------------------------ *)
(* Workloads                                                           *)
(* ------------------------------------------------------------------ *)

let find_op ops name = List.find (fun (o : op) -> o.name = name) ops

(* Three seeded programs, not more: with six seeded compiles among the
   thirty, the median op stays inside a cluster of registry compiles of
   nearly equal time wherever the seeded ones fall (README.md). *)
let compile_cold ~seed ~smoke =
  let cfg =
    { Random_pipeline.default_config with
      Random_pipeline.max_stages = 8;
      Random_pipeline.max_extent = 40
    }
  in
  let progs ~fixed l = List.map (fun np -> (fixed, np)) l in
  let programs =
    progs ~fixed:true (registry ~smoke (compile_names ~smoke))
    @ progs ~fixed:false
        (random_programs cfg ~seed ~count:(if smoke then 1 else 3))
  in
  let ops =
    List.concat_map
      (fun (fixed, ((_, p) as np)) ->
        let reference = naive_reference ~fill:seed p in
        List.map (compile_op ~fill:seed ~fixed ~reference np) [ Ours; Smartfuse ])
      programs
  in
  { ops; warmup = find_op ops "conv2d/ours"; verify_ops = ops; pass_s = 0.42 }

(* Interpreting a layer twice for the output check costs about as much
   as profiling it, so each run checks two layers chosen by the seed;
   ten consecutive seeds cover all sixteen. *)
let execute_resnet ~seed ~smoke =
  let blocks = Resnet.default_blocks () in
  let blocks =
    if smoke then
      List.map
        (fun b -> { b with Resnet.height = 6; Resnet.width = 6 })
        (List.filteri (fun i _ -> i < 2) blocks)
    else blocks
  in
  let ops =
    List.map
      (fun b -> profile_op ~fill:seed (b.Resnet.blk_name, Resnet.layer b))
      blocks
  in
  let n = List.length ops in
  let verify_ops =
    if smoke then ops
    else
      List.sort_uniq compare [ seed mod n; (seed + (n / 2)) mod n ]
      |> List.map (List.nth ops)
  in
  { ops; warmup = List.nth ops (n - 1); verify_ops; pass_s = 12.5 }

let execute_tiles ~seed ~smoke =
  let ops = List.map (tiles_op ~fill:seed) (registry ~smoke (image_names ~smoke)) in
  { ops; warmup = find_op ops "unsharp_mask/ours"; verify_ops = ops; pass_s = 1.15 }

(* Four seeded pipelines, small ones (no reductions, four stages at
   most), which tune faster than all but the three fastest registry
   programs: the median op then lies between the bilateral_grid and
   gemver tunes, which take nearly the same time, whatever the seed. *)
let tune_warm ~seed ~smoke =
  let cfg =
    { Random_pipeline.default_config with
      Random_pipeline.max_stages = 4;
      Random_pipeline.max_extent = 16;
      Random_pipeline.allow_reductions = false
    }
  in
  let names = if smoke then [ "equake" ] else compile_names ~smoke in
  let ops =
    List.map (tune_op ~fill:seed ~fixed:true) (registry ~smoke names)
    @ List.map
        (tune_op ~fill:seed ~fixed:false)
        (random_programs cfg ~seed ~count:(if smoke then 1 else 4))
  in
  { ops; warmup = find_op ops "equake/tuned"; verify_ops = ops; pass_s = 8.0 }

let make name ~seed ~smoke =
  match name with
  | "compile-cold" -> compile_cold ~seed ~smoke
  | "execute-resnet" -> execute_resnet ~seed ~smoke
  | "execute-tiles" -> execute_tiles ~seed ~smoke
  | "tune-warm" -> tune_warm ~seed ~smoke
  | other ->
      invalid_arg
        (Printf.sprintf "unknown workload %s (available: %s)" other
           (String.concat ", " names))
