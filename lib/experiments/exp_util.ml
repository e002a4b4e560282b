type flavor =
  | Naive
  | Baseline of Core.Pipeline.baseline * int  (* tile size used *)
  | Ours of Core.Pipeline.compiled

type version = {
  ver_name : string;
  uid : int;
  ast : Ast.t;
  flavor : flavor;
  compile_s : float;
  budget_exceeded : bool;
}

(* Atomic: versions can be built concurrently on several domains (the
   tuner's parallel candidate evaluation), and a duplicated uid would
   alias profile-cache entries. *)
let next_uid =
  let c = Atomic.make 0 in
  fun () -> Atomic.fetch_and_add c 1 + 1

let time_it f =
  let t0 = Unix.gettimeofday () in
  let r = f () in
  (r, Unix.gettimeofday () -. t0)

let naive (p : Prog.t) =
  let (ast, compile_s) =
    time_it (fun () ->
        let deps = Deps.compute p in
        let r = Fusion.schedule p ~deps ~target_parallelism:1 Fusion.Minfuse in
        Gen.generate p (Build_tree.initial_tree p r))
  in
  { ver_name = "naive"; uid = next_uid (); ast; flavor = Naive; compile_s; budget_exceeded = false }

let heuristic ?(tile = 32) ?max_steps ?fuse_reductions ~target h (p : Prog.t) =
  let ((b, ast), compile_s) =
    time_it (fun () ->
        let b =
          Core.Pipeline.run_heuristic ~tile_size:tile ?max_steps ?fuse_reductions
            ~target h p
        in
        (b, Gen.generate p b.Core.Pipeline.b_tree))
  in
  { ver_name = Fusion.heuristic_name h;
    uid = next_uid ();
    ast;
    flavor = Baseline (b, tile);
    compile_s;
    budget_exceeded = b.Core.Pipeline.b_result.Fusion.budget_exceeded
  }

let sizes_for ?tile_sizes ~tile () =
  match tile_sizes with
  | None -> None
  | Some sizes ->
      Some
        (fun (s : Core.Spaces.t) ->
          let bd = s.Core.Spaces.group.Fusion.band_dims in
          Array.init bd (fun d ->
              if d < Array.length sizes then sizes.(d)
              else if Array.length sizes > 0 then sizes.(Array.length sizes - 1)
              else tile))

let ours ?(tile = 32) ?tile_sizes ?(startup = Fusion.Smartfuse) ?fuse_reductions
    ?recompute_limit ~target (p : Prog.t) =
  let ((c, ast), compile_s) =
    time_it (fun () ->
        let c =
          Core.Pipeline.run ~startup ~tile_size:tile
            ?tile_sizes_for:(sizes_for ?tile_sizes ~tile ()) ?fuse_reductions
            ?recompute_limit ~target p
        in
        (c, Gen.generate p c.Core.Pipeline.tree))
  in
  { ver_name = "ours"; uid = next_uid (); ast; flavor = Ours c; compile_s; budget_exceeded = false }

let polymage_version ?(tile = 32) ?tile_sizes ~target (p : Prog.t) =
  let ((c, ast), compile_s) =
    time_it (fun () ->
        let c =
          Core.Pipeline.run ~tile_size:tile
            ?tile_sizes_for:(sizes_for ?tile_sizes ~tile ()) ~target p
        in
        let c = Competitors.polymage c in
        (c, Gen.generate p c.Core.Pipeline.tree))
  in
  { ver_name = "polymage"; uid = next_uid (); ast; flavor = Ours c; compile_s; budget_exceeded = false }

let halide_version ?(tile = 32) ?tile_sizes ~target (p : Prog.t) =
  let ((c, ast), compile_s) =
    time_it (fun () ->
        let c =
          Core.Pipeline.run ~tile_size:tile
            ?tile_sizes_for:(sizes_for ?tile_sizes ~tile ())
            ~fusable:(fun (s : Core.Spaces.t) ->
              List.for_all
                (Competitors.halide_fused_stages p.Prog.prog_name)
                s.Core.Spaces.group.Fusion.stmts)
            ~target p
        in
        (c, Gen.generate p c.Core.Pipeline.tree))
  in
  { ver_name = "halide"; uid = next_uid (); ast; flavor = Ours c; compile_s; budget_exceeded = false }

(* The schedule tree a version's AST was generated from. The naive
   constructor discards its tree, so it is recomputed here — the naive
   flow is deterministic and cheap (no tiling search). *)
let tree_of (p : Prog.t) v =
  match v.flavor with
  | Naive ->
      let deps = Deps.compute p in
      let r = Fusion.schedule p ~deps ~target_parallelism:1 Fusion.Minfuse in
      Build_tree.initial_tree p r
  | Baseline (b, _) -> b.Core.Pipeline.b_tree
  | Ours c -> c.Core.Pipeline.tree

let deps_of (p : Prog.t) v =
  match v.flavor with
  | Ours c -> c.Core.Pipeline.deps
  | Baseline (b, _) -> b.Core.Pipeline.b_deps
  | Naive -> Deps.compute p

let check_against (p : Prog.t) v1 v2 =
  let m1 = Cpu_model.run_to_memory p v1.ast in
  let m2 = Cpu_model.run_to_memory p v2.ast in
  List.for_all (fun a -> Interp.arrays_equal m1 m2 a) p.Prog.live_out

(* ------------------------------------------------------------------ *)
(* Profiles and models                                                 *)
(* ------------------------------------------------------------------ *)

let profile_cache : (int, Cpu_model.report) Hashtbl.t = Hashtbl.create 32

(* Guards the table only: profiling runs outside the lock (it can take
   seconds; a duplicated concurrent profile is pure and harmless). *)
let profile_mu = Mutex.create ()

let cpu_profile (p : Prog.t) v =
  ignore p.Prog.prog_name;
  let key = v.uid in
  let cached =
    Mutex.lock profile_mu;
    let r = Hashtbl.find_opt profile_cache key in
    Mutex.unlock profile_mu;
    r
  in
  match cached with
  | Some r ->
      Obs.count "exp.profile_cache.hits";
      r
  | None ->
      Obs.count "exp.profile_cache.misses";
      let r = Obs.span "exp.cpu_profile" (fun () -> Cpu_model.profile p v.ast) in
      Mutex.lock profile_mu;
      Hashtbl.replace profile_cache key r;
      Mutex.unlock profile_mu;
      r

let cpu_time_ms ?vectorize (p : Prog.t) v ~threads =
  Cpu_model.time_ms ?vectorize Cpu_model.xeon_e5_2683 (cpu_profile p v) ~threads

let clusters (_p : Prog.t) v =
  match v.flavor with
  | Naive -> invalid_arg "Exp_util.clusters: naive version has no clusters"
  | Baseline (b, tile) -> Footprints.clusters_of_baseline ~tile_size:tile b
  | Ours c -> Footprints.clusters_of_compiled c

let gpu_time_ms (p : Prog.t) v =
  Gpu_model.time_ms Gpu_model.quadro_p6000 p (clusters p v)

(* ------------------------------------------------------------------ *)
(* Rendering                                                           *)
(* ------------------------------------------------------------------ *)

let print_table ~header rows =
  let all = header :: rows in
  let cols = List.length header in
  let widths =
    Array.init cols (fun c ->
        List.fold_left
          (fun acc row ->
            match List.nth_opt row c with
            | Some cell -> max acc (String.length cell)
            | None -> acc)
          0 all)
  in
  let print_row row =
    let cells =
      List.mapi (fun c cell -> Printf.sprintf "%-*s" widths.(c) cell) row
    in
    print_endline ("  " ^ String.concat "  " cells)
  in
  print_row header;
  print_row (List.init cols (fun c -> String.make widths.(c) '-'));
  List.iter print_row rows

let section title =
  Printf.printf "\n%s\n%s\n" title (String.make (String.length title) '=')
