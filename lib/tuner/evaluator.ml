(* Compile-verify-score of one tuning candidate (see evaluator.mli). *)

type score = {
  sc_dram_bytes : int;
  sc_staged_bytes : int;
  sc_tiles : int;
  sc_wavefronts : int;
  sc_parallelism : float;
}

let cost s = float_of_int (s.sc_dram_bytes + s.sc_staged_bytes)

let compare_scores a b =
  let c = compare (cost a) (cost b) in
  if c <> 0 then c
  else
    let c = compare a.sc_dram_bytes b.sc_dram_bytes in
    if c <> 0 then c
    else
      let c = compare a.sc_staged_bytes b.sc_staged_bytes in
      if c <> 0 then c else compare b.sc_parallelism a.sc_parallelism

let score_to_json s =
  let open Json_util.Json in
  Obj
    [ ("dram_bytes", Num (float_of_int s.sc_dram_bytes));
      ("staged_bytes", Num (float_of_int s.sc_staged_bytes));
      ("tiles", Num (float_of_int s.sc_tiles));
      ("wavefronts", Num (float_of_int s.sc_wavefronts));
      ("parallelism", Num s.sc_parallelism)
    ]

let score_of_json j =
  let open Json_util.Json in
  let num k =
    match member k j with
    | Some (Num f) -> Ok f
    | _ -> Error (Printf.sprintf "score: missing %s" k)
  in
  let ( let* ) r f = match r with Ok v -> f v | Error _ as e -> e in
  let* dram = num "dram_bytes" in
  let* staged = num "staged_bytes" in
  let* tiles = num "tiles" in
  let* waves = num "wavefronts" in
  let* par = num "parallelism" in
  Ok
    { sc_dram_bytes = int_of_float dram;
      sc_staged_bytes = int_of_float staged;
      sc_tiles = int_of_float tiles;
      sc_wavefronts = int_of_float waves;
      sc_parallelism = par
    }

type outcome =
  | Scored of score
  | Illegal of string
  | Failed of string

(* The tile graph only informs the parallelism estimate; a soft cap
   keeps huge tilings from dominating evaluation time. *)
let tile_graph_cap = 256

let version_of ~target p (c : Search_space.candidate) =
  match c.Search_space.cd_flow with
  | Search_space.Ours ->
      Exp_util.ours ~tile_sizes:c.Search_space.cd_tiles
        ~fuse_reductions:c.Search_space.cd_fuse_reductions
        ~recompute_limit:c.Search_space.cd_recompute_limit ~target p
  | Search_space.Minfuse ->
      Exp_util.heuristic ~tile:c.Search_space.cd_tiles.(0)
        ~fuse_reductions:c.Search_space.cd_fuse_reductions ~target
        Fusion.Minfuse p
  | Search_space.Smartfuse ->
      Exp_util.heuristic ~tile:c.Search_space.cd_tiles.(0)
        ~fuse_reductions:c.Search_space.cd_fuse_reductions ~target
        Fusion.Smartfuse p
  | Search_space.Maxfuse ->
      Exp_util.heuristic ~tile:c.Search_space.cd_tiles.(0)
        ~fuse_reductions:c.Search_space.cd_fuse_reductions ~target
        Fusion.Maxfuse p

let score_version p (v : Exp_util.version) =
  let clusters = Exp_util.clusters p v in
  let traffic = Footprints.program_traffic p clusters in
  let staged = Footprints.max_staged_bytes p clusters in
  let graph =
    Tile_graph.extract ~max_tiles:tile_graph_cap p ~deps:(Exp_util.deps_of p v)
      v.Exp_util.ast
  in
  let tiles = Tile_graph.n_items graph in
  let wavefronts =
    Array.fold_left (fun acc l -> max acc (l + 1)) 0 (Tile_graph.levels graph)
  in
  { sc_dram_bytes = traffic.Footprints.read_bytes + traffic.Footprints.write_bytes;
    sc_staged_bytes = staged;
    sc_tiles = tiles;
    sc_wavefronts = wavefronts;
    sc_parallelism =
      (if wavefronts = 0 then 0.0
       else float_of_int tiles /. float_of_int wavefronts)
  }

let evaluate_one p ~deps c =
  Obs.count "tuner.evaluated";
  match
    Obs.span "tuner.evaluate" (fun () ->
        let v = version_of ~target:Core.Pipeline.Cpu p c in
        let deps = match deps with Ok d -> d | Error e -> raise e in
        let report = Legality.check p ~deps (Exp_util.tree_of p v) in
        match report.Legality.rep_violations with
        | vl :: _ -> Illegal (Legality.violation_string vl)
        | [] -> Scored (score_version p v))
  with
  | Scored _ as s -> s
  | Illegal _ as i ->
      Obs.count "tuner.illegal";
      i
  | Failed _ as f -> f
  | exception e ->
      Obs.count "tuner.failed";
      Failed (Printexc.to_string e)

let evaluate ?(jobs = 1) p cands =
  (* The checker's dependences are the program's, the same for every
     candidate: computed once per batch. A raising computation fails
     each candidate, as a raising compile does. *)
  let deps = match Deps.compute p with d -> Ok d | exception e -> Error e in
  let arr = Array.of_list cands in
  let n = Array.length arr in
  let out = Array.make n (Failed "not evaluated") in
  let jobs = max 1 (min jobs n) in
  if jobs <= 1 then
    Array.iteri (fun i c -> out.(i) <- evaluate_one p ~deps c) arr
  else begin
    let next = Atomic.make 0 in
    let worker () =
      let rec loop () =
        let i = Atomic.fetch_and_add next 1 in
        if i < n then begin
          out.(i) <- evaluate_one p ~deps arr.(i);
          loop ()
        end
      in
      loop ()
    in
    let doms = Array.init (jobs - 1) (fun _ -> Domain.spawn worker) in
    worker ();
    Array.iter Domain.join doms
  end;
  List.mapi (fun i c -> (c, out.(i))) cands
