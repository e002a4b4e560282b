type target = Cpu | Gpu | Npu

let parallelism_cap = function Cpu -> 1 | Gpu -> 2 | Npu -> 2

type compiled = {
  prog : Prog.t;
  deps : Deps.t list;
  spaces : Spaces.t list;
  plan : Post_tiling.plan;
  tree : Schedule_tree.t;
  startup : Fusion.result;
  search_steps : int;
}

let default_sizes ~tile_size (s : Spaces.t) =
  Array.make s.Spaces.group.Fusion.band_dims tile_size

(* Advisory tile-shape trace for [memcomp explain]: for every live-out
   space, log the halved/configured/doubled size candidates with the
   per-tile iteration count and a data-footprint estimate (4 bytes per
   element across the arrays the group touches). Only the configured
   sizes are acted on, so compilation is unchanged. *)
let emit_tile_shape_trace p spaces tile_sizes_for =
  if Obs.is_enabled () then
    List.iter
      (fun (s : Spaces.t) ->
        if s.Spaces.live_out && s.Spaces.group.Fusion.band_dims > 0 then begin
          let g = s.Spaces.group in
          let arrays =
            List.sort_uniq compare
              (List.concat_map
                 (fun name ->
                   let st = Prog.find_stmt p name in
                   st.Prog.write.Prog.array
                   :: List.map (fun (a : Prog.access) -> a.Prog.array) st.Prog.reads)
                 g.Fusion.stmts)
          in
          let chosen = tile_sizes_for s in
          let candidate label scale =
            let sizes = Array.map (fun v -> max 1 (scale v)) chosen in
            let points = Array.fold_left ( * ) 1 sizes in
            Obs.event ~cat:"tiling" "tile_shape.candidate"
              [ ("space", Obs.I s.Spaces.id);
                ("which", Obs.S label);
                ( "sizes",
                  Obs.S
                    (String.concat "x"
                       (List.map string_of_int (Array.to_list sizes))) );
                ("points_per_tile", Obs.I points);
                ("est_bytes_per_tile", Obs.I (points * 4 * List.length arrays));
                ("chosen", Obs.B (label = "configured"))
              ]
          in
          candidate "halved" (fun v -> v / 2);
          candidate "configured" (fun v -> v);
          candidate "doubled" (fun v -> v * 2)
        end)
      spaces

(* The start-up fusion defaults to Smartfuse: our IR splits imperfect
   nests into consecutive perfect nests, so the nest-level "minfuse"
   grouping the paper starts from (which keeps an initialization
   statement with its reduction) corresponds to the
   parallelism-preserving heuristic at statement granularity. *)
let run ?(startup = Fusion.Smartfuse) ?(tile_size = 32) ?tile_sizes_for
    ?fuse_reductions ?fusable ?recompute_limit ~target prog =
  Obs.span "pipeline.compile" @@ fun () ->
  Obs.count "pipeline.compiles";
  Obs.count "pipeline.runs";
  let deps = Obs.span "pipeline.deps" (fun () -> Deps.compute prog) in
  let cap = parallelism_cap target in
  let result =
    Obs.span "pipeline.startup_fusion" (fun () ->
        Fusion.schedule ?fuse_reductions prog ~deps ~target_parallelism:cap
          startup)
  in
  let spaces = Spaces.of_result prog result in
  let tile_sizes_for =
    match tile_sizes_for with
    | Some f -> f
    | None -> default_sizes ~tile_size
  in
  emit_tile_shape_trace prog spaces tile_sizes_for;
  let plan =
    Obs.span "pipeline.post_tiling" (fun () ->
        Post_tiling.plan prog ~spaces ~tile_sizes_for ~parallelism_cap:cap
          ?fusable ?recompute_limit)
  in
  let tree =
    Obs.span "pipeline.tree" (fun () -> Post_tiling.to_tree prog ~spaces plan)
  in
  Obs.add "pipeline.search_steps" result.Fusion.search_steps;
  Obs.add "pipeline.fusion_groups" (List.length result.Fusion.groups);
  Obs.add "pipeline.fused_spaces"
    (List.length (List.concat_map (fun r -> r.Post_tiling.fused_ids) plan.Post_tiling.roots));
  { prog;
    deps;
    spaces;
    plan;
    tree;
    startup = result;
    search_steps = result.Fusion.search_steps
  }

type baseline = {
  b_prog : Prog.t;
  b_deps : Deps.t list;
  b_result : Fusion.result;
  b_tree : Schedule_tree.t;
}

(* Rectangular tiling-after-fusion: tile every permutable group band.
   The rewrite is top-down and only touches the outer (group) band of
   each fusion group; inner per-statement bands stay untiled. *)
let tiled_tree (p : Prog.t) (r : Fusion.result) ~tile_size =
  let open Schedule_tree in
  (* "kernel:<i>" carries the fusion-group index into the generated
     AST's [Kernel] id (stable entity naming; see post_tiling.ml). *)
  let tile_group i = function
    | Filter (f, Band (b, child)) when b.permutable && b.n_members > 0 ->
        let sizes = Array.make b.n_members tile_size in
        let tile, point = tile_band b ~tile_sizes:sizes ~prefix:"T_" in
        Filter
          ( f,
            Mark
              ( Printf.sprintf "kernel:%d" i,
                Band (tile, Mark ("point", Band (point, child))) ) )
    | other -> other
  in
  match Build_tree.initial_tree p r with
  | Domain (d, Sequence cs) -> Domain (d, Sequence (List.mapi tile_group cs))
  | Domain (d, single) -> Domain (d, tile_group 0 single)
  | other -> other

let run_heuristic ?(tile_size = 32) ?max_steps ?fuse_reductions ~target
    heuristic prog =
  Obs.span "pipeline.compile_heuristic" @@ fun () ->
  Obs.count "pipeline.runs";
  let deps = Obs.span "pipeline.deps" (fun () -> Deps.compute prog) in
  let cap = parallelism_cap target in
  let result =
    Obs.span "pipeline.startup_fusion" (fun () ->
        Fusion.schedule ?max_steps ?fuse_reductions prog ~deps
          ~target_parallelism:cap heuristic)
  in
  let tree =
    Obs.span "pipeline.tree" (fun () -> tiled_tree prog result ~tile_size)
  in
  Obs.add "pipeline.search_steps" result.Fusion.search_steps;
  Obs.add "pipeline.fusion_groups" (List.length result.Fusion.groups);
  { b_prog = prog; b_deps = deps; b_result = result; b_tree = tree }
