open Presburger

(* Dilate one extension piece by [delta]: every inequality touching the
   statement (output) dimensions is loosened, equalities are split into
   a +/- delta band, and the result is clipped to the statement domain. *)
let dilate_piece (p : Prog.t) delta piece =
  let sp = Bmap.space piece in
  let np = Bmap.n_params piece and ni = Bmap.n_in piece and no = Bmap.n_out piece in
  (* only constraints coupling the tile coordinates with the statement
     instances (the per-tile overlap region) are loosened; global domain
     bounds stay exact, as PolyMage's clamping does. *)
  let touches_out (c : Cstr.t) =
    let rec go j = j < no && (c.Cstr.coef.(np + ni + j) <> 0 || go (j + 1)) in
    go 0
  in
  let touches_in (c : Cstr.t) =
    let rec go j = j < ni && (c.Cstr.coef.(np + j) <> 0 || go (j + 1)) in
    go 0
  in
  let cstrs =
    List.concat_map
      (fun (c : Cstr.t) ->
        if not (touches_out c && touches_in c) then [ c ]
        else
          match c.Cstr.kind with
          | Cstr.Ge -> [ { c with cst = c.Cstr.cst + delta } ]
          | Cstr.Eq ->
              [ { c with kind = Cstr.Ge; cst = c.Cstr.cst + delta };
                { Cstr.kind = Cstr.Ge;
                  coef = Vec.scale (-1) c.Cstr.coef;
                  cst = -c.Cstr.cst + delta
                }
              ])
      piece.Bmap.cstrs
  in
  let dilated = Bmap.make sp cstrs in
  let stmt = Prog.find_stmt p sp.Space.out_tuple in
  Bmap.intersect_range dilated stmt.Prog.domain

(* Per-extension dilation deltas. A dilated consumer region reads
   [delta_c] beyond its exact needs, and the producer's exact piece
   covers exactly those needs — so soundness requires
   [delta_producer >= delta_consumer] along every derivation chain.
   [parents] lists the downstream spaces an extension was derived
   through, so the longest-path depth over that DAG (consumer-first,
   live-out depth 0) yields strictly growing deltas towards the
   producers, mirroring PolyMage's overlap growth with stage depth.
   The old [length parents] proxy violated the ordering on diamond
   DAGs (camera_pipeline: the g_at_b producer got a smaller delta than
   its g_avg consumer), leaving fringe instances reading cells no tile
   had written yet — caught by [Legality.check]/[Shadow.validate]. *)
let dilation_deltas (extensions : Core.Tile_shapes.extension list) =
  let depth = Hashtbl.create 8 in
  List.iter
    (fun (e : Core.Tile_shapes.extension) ->
      let d =
        1
        + List.fold_left
            (fun acc q ->
              max acc
                (if q = -1 then 0
                 else Option.value ~default:0 (Hashtbl.find_opt depth q)))
            0 e.Core.Tile_shapes.parents
      in
      Hashtbl.replace depth e.Core.Tile_shapes.space_id d)
    (List.rev extensions);
  (* extensions are producer-first; reversed = consumer-first *)
  fun (e : Core.Tile_shapes.extension) ->
    Option.value ~default:1 (Hashtbl.find_opt depth e.Core.Tile_shapes.space_id)

let dilate_extension (p : Prog.t) ~delta (e : Core.Tile_shapes.extension) =
  { e with
    Core.Tile_shapes.ext_rel =
      Imap.of_bmaps
        (List.map (dilate_piece p delta) (Imap.pieces e.Core.Tile_shapes.ext_rel))
  }

let polymage (c : Core.Pipeline.compiled) =
  let p = c.Core.Pipeline.prog in
  let plan = c.Core.Pipeline.plan in
  let roots =
    List.map
      (fun (r : Core.Post_tiling.root) ->
        let t = r.Core.Post_tiling.tiling in
        let delta_of = dilation_deltas t.Core.Tile_shapes.extensions in
        { r with
          Core.Post_tiling.tiling =
            { t with
              Core.Tile_shapes.extensions =
                List.map
                  (fun e -> dilate_extension p ~delta:(delta_of e) e)
                  t.Core.Tile_shapes.extensions
            }
        })
      plan.Core.Post_tiling.roots
  in
  let plan = { plan with Core.Post_tiling.roots } in
  let tree = Core.Post_tiling.to_tree p ~spaces:c.Core.Pipeline.spaces plan in
  { c with Core.Pipeline.plan; tree }

(* Manual-schedule fusion decisions per benchmark, following the
   published Halide schedules at our stage granularity. *)
let halide_fused_stages prog_name stage =
  match prog_name with
  | "unsharp_mask" -> true (* all stages computed at the output tile *)
  | "harris" ->
      (* the manual schedule computes the gradient products inline but
         leaves gray/sobel/sums at root (the inlining the paper says
         Halide missed) *)
      List.mem stage [ "ixx"; "ixy"; "iyy"; "det" ]
  | "bilateral_grid" ->
      (* the grid blurs are fused into slicing; grid construction at root *)
      List.mem stage [ "blurz"; "blurx"; "blury" ]
  | "camera_pipeline" ->
      (* demosaic interpolation and color stages fused; deinterleave and
         denoise at root *)
      not
        (List.mem stage [ "denoise"; "gr"; "rr"; "bb"; "gb" ])
  | "local_laplacian" ->
      (* pyramids at root, per-level blends and collapse fused *)
      (String.length stage >= 5 && String.sub stage 0 5 = "blend")
      || (String.length stage >= 3 && String.sub stage 0 3 = "col")
      || (String.length stage >= 5 && String.sub stage 0 5 = "remap")
  | "multiscale_interp" ->
      (* down-sampling chain at root, up-sampling chain fused *)
      (String.length stage >= 2 && String.sub stage 0 2 = "up")
      || (String.length stage >= 4 && String.sub stage 0 4 = "comb")
      || stage = "norm"
  | _ -> true
