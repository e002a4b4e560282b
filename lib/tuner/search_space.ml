(* Candidate enumeration and footprint pruning (see search_space.mli). *)

type flow = Minfuse | Smartfuse | Maxfuse | Ours

let flow_name = function
  | Minfuse -> "minfuse"
  | Smartfuse -> "smartfuse"
  | Maxfuse -> "maxfuse"
  | Ours -> "ours"

let flow_of_string = function
  | "minfuse" -> Some Minfuse
  | "smartfuse" -> Some Smartfuse
  | "maxfuse" -> Some Maxfuse
  | "ours" -> Some Ours
  | _ -> None

let all_flows = [ Minfuse; Smartfuse; Maxfuse; Ours ]

type candidate = {
  cd_flow : flow;
  cd_tiles : int array;
  cd_fuse_reductions : bool;
  cd_recompute_limit : float;
}

let candidate_name c =
  Printf.sprintf "%s/%s/fr%d/rl%g" (flow_name c.cd_flow)
    (String.concat "x" (List.map string_of_int (Array.to_list c.cd_tiles)))
    (if c.cd_fuse_reductions then 1 else 0)
    c.cd_recompute_limit

let candidate_to_json c =
  let open Json_util.Json in
  Obj
    [ ("flow", Str (flow_name c.cd_flow));
      ( "tiles",
        Arr (List.map (fun t -> Num (float_of_int t)) (Array.to_list c.cd_tiles))
      );
      ("fuse_reductions", Bool c.cd_fuse_reductions);
      ("recompute_limit", Num c.cd_recompute_limit)
    ]

let candidate_of_json j =
  let open Json_util.Json in
  let ( let* ) r f = match r with Ok v -> f v | Error _ as e -> e in
  let* flow =
    match member "flow" j with
    | Some (Str s) -> (
        match flow_of_string s with
        | Some f -> Ok f
        | None -> Error (Printf.sprintf "unknown flow %S" s))
    | _ -> Error "candidate: missing flow"
  in
  let* tiles =
    match member "tiles" j with
    | Some (Arr l) ->
        List.fold_left
          (fun acc v ->
            let* acc = acc in
            match v with
            | Num f when Float.is_integer f -> Ok (int_of_float f :: acc)
            | _ -> Error "candidate: non-integer tile size")
          (Ok []) l
        |> Result.map (fun l -> Array.of_list (List.rev l))
    | _ -> Error "candidate: missing tiles"
  in
  let* fr =
    match member "fuse_reductions" j with
    | Some (Bool b) -> Ok b
    | _ -> Error "candidate: missing fuse_reductions"
  in
  let* rl =
    match member "recompute_limit" j with
    | Some (Num f) -> Ok f
    | _ -> Error "candidate: missing recompute_limit"
  in
  Ok { cd_flow = flow; cd_tiles = tiles; cd_fuse_reductions = fr; cd_recompute_limit = rl }

type t = {
  dims : int;
  ladder : int list;
  recompute_ladder : float list;
  flows : flow list;
  scratchpad_bytes : int;
  max_extent : int;
  stageable_arrays : int;
}

let default_ladder = [ 8; 16; 32; 64; 128 ]

let default_recompute_ladder = [ 2.0; 4.0; 8.0 ]

let make ?(ladder = default_ladder) ?(recompute_ladder = default_recompute_ladder)
    ?(flows = all_flows) ?(scratchpad_bytes = 128 * 1024) (p : Prog.t) =
  let dims =
    List.fold_left
      (fun acc (s : Prog.stmt) ->
        max acc (Presburger.Bset.n_dims s.Prog.domain))
      1 p.Prog.stmts
    |> min 3
  in
  let max_extent =
    List.fold_left
      (fun acc (a : Prog.array_decl) ->
        List.fold_left max acc (Prog.array_extent p a.Prog.array_name))
      1 p.Prog.arrays
  in
  let stageable_arrays = max 1 (List.length (Prog.intermediate_arrays p)) in
  { dims;
    ladder = List.sort_uniq compare ladder;
    recompute_ladder = List.sort_uniq compare recompute_ladder;
    flows;
    scratchpad_bytes;
    max_extent;
    stageable_arrays
  }

let clamp_to_ladder sp v =
  (* nearest ladder rung, biased low on ties; the default tile edge 32
     maps onto whatever ladder the space was built with *)
  match sp.ladder with
  | [] -> v
  | l ->
      List.fold_left
        (fun best r -> if abs (r - v) < abs (best - v) then r else best)
        (List.hd l) l

let default_candidate sp =
  { cd_flow = (if List.mem Ours sp.flows then Ours else List.hd sp.flows);
    cd_tiles = Array.make sp.dims (clamp_to_ladder sp 32);
    cd_fuse_reductions = true;
    cd_recompute_limit = 4.0
  }

let footprint_estimate sp tiles =
  let points =
    Array.fold_left (fun acc t -> acc * max 1 (min t sp.max_extent)) 1 tiles
  in
  points * Interp.elem_bytes * sp.stageable_arrays

let fits sp c = footprint_estimate sp c.cd_tiles <= sp.scratchpad_bytes

(* Cartesian product over [dims] copies of the ladder, lexicographic. *)
let tile_vectors sp =
  let rec go d =
    if d = 0 then [ [] ]
    else
      let rest = go (d - 1) in
      List.concat_map (fun t -> List.map (fun v -> t :: v) rest) sp.ladder
  in
  List.map Array.of_list (go sp.dims)

let raw_enumerate sp =
  List.concat_map
    (fun flow ->
      let vectors =
        match flow with
        | Ours -> tile_vectors sp
        | Minfuse | Smartfuse | Maxfuse ->
            (* one tile edge: uniform vectors only, no duplicates *)
            List.map (fun t -> Array.make sp.dims t) sp.ladder
      in
      let limits =
        match flow with Ours -> sp.recompute_ladder | _ -> [ 4.0 ]
      in
      List.concat_map
        (fun tiles ->
          List.concat_map
            (fun rl ->
              List.map
                (fun fr ->
                  { cd_flow = flow;
                    cd_tiles = tiles;
                    cd_fuse_reductions = fr;
                    cd_recompute_limit = rl
                  })
                [ true; false ])
            limits)
        vectors)
    sp.flows

let enumerate sp =
  let raw = raw_enumerate sp in
  let kept, pruned = List.partition (fits sp) raw in
  let default = default_candidate sp in
  let kept =
    if List.exists (fun c -> c = default) kept then
      default :: List.filter (fun c -> c <> default) kept
    else if fits sp default then default :: kept
    else kept
  in
  (kept, List.length pruned)

let neighbors sp c =
  let ladder = Array.of_list sp.ladder in
  let rung v =
    let r = ref (-1) in
    Array.iteri (fun i x -> if x = v then r := i) ladder;
    !r
  in
  let tile_moves =
    List.concat
      (List.init (Array.length c.cd_tiles) (fun d ->
           let r = rung c.cd_tiles.(d) in
           let step dir =
             let r' = r + dir in
             if r < 0 || r' < 0 || r' >= Array.length ladder then None
             else begin
               let tiles = Array.copy c.cd_tiles in
               tiles.(d) <- ladder.(r');
               (* heuristic flows tile with one edge: keep vectors uniform *)
               (match c.cd_flow with
               | Ours -> ()
               | Minfuse | Smartfuse | Maxfuse ->
                   Array.fill tiles 0 (Array.length tiles) ladder.(r'));
               Some { c with cd_tiles = tiles }
             end
           in
           List.filter_map step [ -1; 1 ]))
  in
  let flow_moves =
    List.filter_map
      (fun f ->
        if f = c.cd_flow then None
        else
          Some
            { c with
              cd_flow = f;
              (* entering a heuristic flow collapses the vector onto its
                 first edge; leaving one keeps the uniform vector *)
              cd_tiles =
                (match f with
                | Ours -> c.cd_tiles
                | _ -> Array.make (Array.length c.cd_tiles) c.cd_tiles.(0))
            })
      sp.flows
  in
  let fr_moves = [ { c with cd_fuse_reductions = not c.cd_fuse_reductions } ] in
  let rl_moves =
    match c.cd_flow with
    | Ours ->
        let rungs = Array.of_list sp.recompute_ladder in
        let r = ref (-1) in
        Array.iteri (fun i x -> if x = c.cd_recompute_limit then r := i) rungs;
        List.filter_map
          (fun dir ->
            let r' = !r + dir in
            if !r < 0 || r' < 0 || r' >= Array.length rungs then None
            else Some { c with cd_recompute_limit = rungs.(r') })
          [ -1; 1 ]
    | _ -> []
  in
  let moves = tile_moves @ flow_moves @ fr_moves @ rl_moves in
  let seen = Hashtbl.create 16 in
  List.filter
    (fun m ->
      let k = candidate_name m in
      if m = c || Hashtbl.mem seen k || not (fits sp m) then false
      else begin
        Hashtbl.add seen k ();
        true
      end)
    moves

let signature sp =
  Printf.sprintf
    "dims=%d ladder=%s rl=%s flows=%s scratchpad=%d elem=%d max_extent=%d \
     stageable=%d"
    sp.dims
    (String.concat "," (List.map string_of_int sp.ladder))
    (String.concat "," (List.map (Printf.sprintf "%g") sp.recompute_ladder))
    (String.concat "," (List.map flow_name sp.flows))
    sp.scratchpad_bytes Interp.elem_bytes sp.max_extent sp.stageable_arrays
